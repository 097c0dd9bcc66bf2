package dataset

// A TPC-DS-flavoured star schema: two fact tables (store_sales, web_sales)
// with Zipf-skewed item keys and clustered date keys, plus the dimension
// tables they reference. The paper trains its models on a mix of TPC-H and
// TPC-DS queries; these tables give the workload generator a second schema
// family with different shapes (star joins, heavier skew, wider dimension
// fan-out) so the trained coefficients are not specific to TPC-H.

// Item returns the TPC-DS item dimension schema.
func Item() *Schema {
	return &Schema{
		Name:   "item",
		RowsAt: scaled(18_000),
		Columns: []Column{
			{Name: "i_item_sk", Kind: KindInt, Card: scaled(18_000), Dist: DistSequential},
			{Name: "i_item_id", Kind: KindString, Width: 16, Card: scaled(18_000), Dist: DistSequential},
			{Name: "i_brand", Kind: KindString, Width: 20, Card: fixed(700), Dist: DistUniform},
			{Name: "i_category", Kind: KindString, Width: 12, Card: fixed(10), Dist: DistUniform},
			{Name: "i_class", Kind: KindString, Width: 12, Card: fixed(100), Dist: DistUniform},
			{Name: "i_current_price", Kind: KindFloat, Card: fixed(10_000), Lo: 1, Dist: DistUniform},
		},
	}
}

// DateDim returns the TPC-DS date dimension schema (fixed size).
func DateDim() *Schema {
	return &Schema{
		Name:   "date_dim",
		RowsAt: fixed(73_049),
		Columns: []Column{
			{Name: "d_date_sk", Kind: KindInt, Card: fixed(73_049), Dist: DistSequential},
			{Name: "d_year", Kind: KindInt, Card: fixed(200), Lo: 1900, Dist: DistClustered},
			{Name: "d_moy", Kind: KindInt, Card: fixed(12), Lo: 1, Dist: DistUniform},
			{Name: "d_dom", Kind: KindInt, Card: fixed(31), Lo: 1, Dist: DistUniform},
			{Name: "d_day_name", Kind: KindString, Width: 9, Card: fixed(7), Dist: DistUniform},
		},
	}
}

// Store returns the TPC-DS store dimension schema.
func Store() *Schema {
	return &Schema{
		Name:   "store",
		RowsAt: scaled(120),
		Columns: []Column{
			{Name: "st_store_sk", Kind: KindInt, Card: scaled(120), Dist: DistSequential},
			{Name: "st_state", Kind: KindString, Width: 2, Card: fixed(9), Dist: DistUniform},
			{Name: "st_market_id", Kind: KindInt, Card: fixed(10), Lo: 1, Dist: DistUniform},
		},
	}
}

// StoreSales returns the TPC-DS store_sales fact table schema. Item keys
// are Zipf-skewed — best-sellers dominate — which makes the equi-width
// histogram join estimator (Eq. 5) diverge visibly from the naive uniform
// formula the paper improves upon.
func StoreSales() *Schema {
	return &Schema{
		Name:   "store_sales",
		RowsAt: scaled(2_880_000),
		Columns: []Column{
			{Name: "ss_item_sk", Kind: KindInt, Card: scaled(18_000), Dist: DistZipf, Skew: 1.1, Ref: "item.i_item_sk"},
			{Name: "ss_store_sk", Kind: KindInt, Card: scaled(120), Dist: DistUniform, Ref: "store.st_store_sk"},
			{Name: "ss_sold_date_sk", Kind: KindInt, Card: fixed(1_823), Dist: DistClustered, Ref: "date_dim.d_date_sk"},
			{Name: "ss_quantity", Kind: KindInt, Card: fixed(100), Lo: 1, Dist: DistUniform},
			{Name: "ss_sales_price", Kind: KindFloat, Card: fixed(20_000), Dist: DistUniform},
			{Name: "ss_net_profit", Kind: KindFloat, Card: fixed(40_000), Lo: -10_000, Dist: DistUniform},
		},
	}
}

// WebSales returns the TPC-DS web_sales fact table schema, smaller and more
// skewed than store_sales (best-sellers dominate web orders).
func WebSales() *Schema {
	return &Schema{
		Name:   "web_sales",
		RowsAt: scaled(720_000),
		Columns: []Column{
			{Name: "ws_item_sk", Kind: KindInt, Card: scaled(18_000), Dist: DistZipf, Skew: 1.18, Ref: "item.i_item_sk"},
			{Name: "ws_sold_date_sk", Kind: KindInt, Card: fixed(1_823), Dist: DistClustered, Ref: "date_dim.d_date_sk"},
			{Name: "ws_quantity", Kind: KindInt, Card: fixed(100), Lo: 1, Dist: DistUniform},
			{Name: "ws_sales_price", Kind: KindFloat, Card: fixed(20_000), Dist: DistUniform},
			{Name: "ws_ship_cost", Kind: KindFloat, Card: fixed(10_000), Dist: DistUniform},
		},
	}
}

// TPCDS returns the TPC-DS-flavoured schemas.
func TPCDS() []*Schema {
	return []*Schema{Item(), DateDim(), Store(), StoreSales(), WebSales()}
}

// Schemas returns every schema this package defines: TPC-H's, then
// TPC-DS's, each in its own list's order.
func Schemas() []*Schema { return append(TPCH(), TPCDS()...) }

// AllSchemas returns every schema this package defines, keyed by table name.
func AllSchemas() map[string]*Schema {
	m := make(map[string]*Schema)
	for _, s := range Schemas() {
		m[s.Name] = s
	}
	return m
}
