// Package floats holds dependency-free floating-point helpers for the
// whole estimation stack. It is a leaf package (imports only math) so
// that histogram, selectivity, predict and trace — which sit *below*
// internal/core in the import graph — can use ApproxEqual and Clamp01 without a
// cycle; callers above core import it from here too.
package floats
