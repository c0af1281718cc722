//! The data generator itself.
//!
//! Mirrors TPC-H `dbgen` cardinality ratios (scaled by `sf`) and, like the
//! skewed TPC-H generator the paper uses \[4\], draws column values and foreign
//! keys from a Zipf distribution with exponent `z` (`z = 0` ⇒ uniform,
//! `z = 1` ⇒ the paper's skewed databases).

use crate::schema::{self, domains, DATE_DOMAIN_DAYS};
use uaq_stats::{Rng, Zipf};
use uaq_storage::{Catalog, Row, Table, Value};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// TPC-H scale factor; `sf = 1.0` would be the 1 GB database
    /// (6 M lineitem rows). The experiments use small fractions.
    pub sf: f64,
    /// Zipf skew exponent `z` (0 = uniform, 1 = paper's skewed databases).
    pub z: f64,
    /// RNG seed; the same seed always generates the same database.
    pub seed: u64,
}

impl GenConfig {
    pub fn new(sf: f64, z: f64, seed: u64) -> Self {
        assert!(sf > 0.0, "scale factor must be positive");
        assert!(z >= 0.0, "skew must be non-negative");
        Self { sf, z, seed }
    }

    /// Generates the database for this configuration (alias of
    /// [`generate`]).
    pub fn build(&self) -> Catalog {
        generate(self)
    }

    fn scaled(&self, base: f64) -> usize {
        ((base * self.sf).round() as usize).max(1)
    }

    /// Row counts per relation at this scale factor (dbgen ratios).
    pub fn cardinalities(&self) -> Cardinalities {
        Cardinalities {
            region: 5,
            nation: 25,
            supplier: self.scaled(10_000.0),
            customer: self.scaled(150_000.0),
            part: self.scaled(200_000.0),
            partsupp: self.scaled(800_000.0),
            orders: self.scaled(1_500_000.0),
            // dbgen draws 1–7 lineitems per order (average 4); we generate
            // per-order so the total is approximate.
            orders_avg_lineitems: 4.0,
        }
    }
}

/// Expected row counts for a configuration.
#[derive(Debug, Clone, Copy)]
pub struct Cardinalities {
    pub region: usize,
    pub nation: usize,
    pub supplier: usize,
    pub customer: usize,
    pub part: usize,
    pub partsupp: usize,
    pub orders: usize,
    pub orders_avg_lineitems: f64,
}

/// A value skewer: rank-to-value mappers driven by a shared Zipf shape.
struct Skewer {
    z: f64,
}

impl Skewer {
    /// Picks an index into a domain of `n` values with Zipf(z) weights over a
    /// randomly *permuted* rank order (so skew does not always favour the
    /// smallest key — mirroring the TPCDSkew generator's behaviour).
    fn pick(&self, n: usize, zipf: &Zipf, perm: &[usize], rng: &mut Rng) -> usize {
        debug_assert_eq!(zipf.domain_size(), n);
        perm[zipf.sample(rng)]
    }
}

fn identity_or_permuted(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut p);
    p
}

/// Generates the full database into a fresh catalog.
pub fn generate(config: &GenConfig) -> Catalog {
    let mut rng = Rng::new(config.seed);
    let card = config.cardinalities();
    let skew = Skewer { z: config.z };

    let mut catalog = Catalog::new();
    catalog.add_table(gen_region());
    catalog.add_table(gen_nation());
    catalog.add_table(gen_supplier(&card, &skew, &mut rng));
    catalog.add_table(gen_customer(&card, &skew, &mut rng));
    catalog.add_table(gen_part(&card, &skew, &mut rng));
    catalog.add_table(gen_partsupp(&card, &skew, &mut rng));
    let (orders, lineitem) = gen_orders_and_lineitem(&card, &skew, &mut rng);
    catalog.add_table(orders);
    catalog.add_table(lineitem);
    catalog
}

fn gen_region() -> Table {
    let rows: Vec<Row> = domains::REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| vec![Value::Int(i as i64), Value::str(*name)])
        .collect();
    Table::new("region", schema::region(), rows)
}

fn gen_nation() -> Table {
    let rows: Vec<Row> = domains::NATIONS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            vec![
                Value::Int(i as i64),
                Value::str(*name),
                Value::Int(domains::NATION_REGION[i] as i64),
            ]
        })
        .collect();
    Table::new("nation", schema::nation(), rows)
}

fn gen_supplier(card: &Cardinalities, skew: &Skewer, rng: &mut Rng) -> Table {
    let nation_zipf = Zipf::new(25, skew.z);
    let nation_perm = identity_or_permuted(25, rng);
    let rows: Vec<Row> = (0..card.supplier)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::str(format!("Supplier#{i:06}")),
                Value::Int(skew.pick(25, &nation_zipf, &nation_perm, rng) as i64),
                Value::Float((rng.f64() * 20_000.0 - 1_000.0 * skew.z).max(-999.0)),
            ]
        })
        .collect();
    Table::new("supplier", schema::supplier(), rows)
}

fn gen_customer(card: &Cardinalities, skew: &Skewer, rng: &mut Rng) -> Table {
    let nation_zipf = Zipf::new(25, skew.z);
    let nation_perm = identity_or_permuted(25, rng);
    let seg_zipf = Zipf::new(domains::SEGMENTS.len(), skew.z);
    let seg_perm = identity_or_permuted(domains::SEGMENTS.len(), rng);
    let rows: Vec<Row> = (0..card.customer)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::str(format!("Customer#{i:06}")),
                Value::Int(skew.pick(25, &nation_zipf, &nation_perm, rng) as i64),
                Value::Float(rng.f64() * 20_000.0 - 1_000.0),
                Value::str(domains::SEGMENTS[skew.pick(5, &seg_zipf, &seg_perm, rng)]),
            ]
        })
        .collect();
    Table::new("customer", schema::customer(), rows)
}

fn gen_part(card: &Cardinalities, skew: &Skewer, rng: &mut Rng) -> Table {
    let size_zipf = Zipf::new(50, skew.z);
    let size_perm = identity_or_permuted(50, rng);
    let brand_zipf = Zipf::new(25, skew.z);
    let brand_perm = identity_or_permuted(25, rng);
    let cont_zipf = Zipf::new(domains::CONTAINERS.len(), skew.z);
    let cont_perm = identity_or_permuted(domains::CONTAINERS.len(), rng);
    let rows: Vec<Row> = (0..card.part)
        .map(|i| {
            let brand = skew.pick(25, &brand_zipf, &brand_perm, rng);
            let ty = format!(
                "{} {} {}",
                rng.choose(&domains::TYPE_SYLL1),
                rng.choose(&domains::TYPE_SYLL2),
                rng.choose(&domains::TYPE_SYLL3)
            );
            vec![
                Value::Int(i as i64),
                Value::str(format!("Part#{i:06}")),
                Value::str(format!("Brand#{}{}", brand / 5 + 1, brand % 5 + 1)),
                Value::str(ty),
                Value::Int(skew.pick(50, &size_zipf, &size_perm, rng) as i64 + 1),
                Value::str(domains::CONTAINERS[skew.pick(8, &cont_zipf, &cont_perm, rng)]),
                Value::Float(900.0 + (i % 1000) as f64 / 10.0),
            ]
        })
        .collect();
    Table::new("part", schema::part(), rows)
}

fn gen_partsupp(card: &Cardinalities, skew: &Skewer, rng: &mut Rng) -> Table {
    // dbgen: 4 suppliers per part.
    let per_part = (card.partsupp / card.part).max(1);
    let supp_zipf = Zipf::new(card.supplier, skew.z);
    let supp_perm = identity_or_permuted(card.supplier, rng);
    let mut rows: Vec<Row> = Vec::with_capacity(card.part * per_part);
    for p in 0..card.part {
        let mut seen = Vec::with_capacity(per_part);
        for _ in 0..per_part {
            let mut s = skew.pick(card.supplier, &supp_zipf, &supp_perm, rng);
            // Avoid duplicate (part, supplier) pairs where possible.
            for _ in 0..4 {
                if !seen.contains(&s) {
                    break;
                }
                s = rng.usize_below(card.supplier);
            }
            seen.push(s);
            rows.push(vec![
                Value::Int(p as i64),
                Value::Int(s as i64),
                Value::Int(rng.i64_range(1, 9999)),
                Value::Float(1.0 + rng.f64() * 999.0),
            ]);
        }
    }
    Table::new("partsupp", schema::partsupp(), rows)
}

fn gen_orders_and_lineitem(card: &Cardinalities, skew: &Skewer, rng: &mut Rng) -> (Table, Table) {
    let cust_zipf = Zipf::new(card.customer, skew.z);
    let cust_perm = identity_or_permuted(card.customer, rng);
    let part_zipf = Zipf::new(card.part, skew.z);
    let part_perm = identity_or_permuted(card.part, rng);
    let supp_zipf = Zipf::new(card.supplier, skew.z);
    let supp_perm = identity_or_permuted(card.supplier, rng);
    let date_zipf = Zipf::new(DATE_DOMAIN_DAYS as usize, skew.z);
    let date_perm = identity_or_permuted(DATE_DOMAIN_DAYS as usize, rng);
    let qty_zipf = Zipf::new(50, skew.z);
    let qty_perm = identity_or_permuted(50, rng);
    let prio_zipf = Zipf::new(domains::PRIORITIES.len(), skew.z);
    let prio_perm = identity_or_permuted(domains::PRIORITIES.len(), rng);
    let mode_zipf = Zipf::new(domains::SHIP_MODES.len(), skew.z);
    let mode_perm = identity_or_permuted(domains::SHIP_MODES.len(), rng);

    let mut orders: Vec<Row> = Vec::with_capacity(card.orders);
    let mut items: Vec<Row> =
        Vec::with_capacity((card.orders as f64 * card.orders_avg_lineitems) as usize);

    for o in 0..card.orders {
        let order_date = skew.pick(DATE_DOMAIN_DAYS as usize, &date_zipf, &date_perm, rng) as i64;
        // Line count 1..=7 (avg 4), dbgen-style.
        let n_lines = 1 + rng.usize_below(7);
        let mut total = 0.0;
        // TPC-H semantics: order status reflects line status; keep it simple
        // but correlated with the date (older orders tend to be finished).
        let status = if order_date < DATE_DOMAIN_DAYS / 2 {
            "F"
        } else if rng.bernoulli(0.25) {
            "P"
        } else {
            "O"
        };
        for l in 0..n_lines {
            let qty = (skew.pick(50, &qty_zipf, &qty_perm, rng) + 1) as f64;
            let part = skew.pick(card.part, &part_zipf, &part_perm, rng);
            let supp = skew.pick(card.supplier, &supp_zipf, &supp_perm, rng);
            let price = qty * (900.0 + (part % 1000) as f64 / 10.0);
            let discount = (rng.usize_below(11) as f64) / 100.0;
            let tax = (rng.usize_below(9) as f64) / 100.0;
            let ship = (order_date + rng.i64_range(1, 121)).min(DATE_DOMAIN_DAYS - 1);
            let commit = (order_date + rng.i64_range(30, 90)).min(DATE_DOMAIN_DAYS - 1);
            let receipt = (ship + rng.i64_range(1, 30)).min(DATE_DOMAIN_DAYS - 1);
            total += price * (1.0 - discount);
            items.push(vec![
                Value::Int(o as i64),
                Value::Int(part as i64),
                Value::Int(supp as i64),
                Value::Int(l as i64 + 1),
                Value::Float(qty),
                Value::Float(price),
                Value::Float(discount),
                Value::Float(tax),
                Value::str(if receipt < DATE_DOMAIN_DAYS / 2 {
                    if rng.bernoulli(0.5) {
                        "A"
                    } else {
                        "R"
                    }
                } else {
                    "N"
                }),
                Value::str(if ship < DATE_DOMAIN_DAYS / 2 {
                    "F"
                } else {
                    "O"
                }),
                Value::Int(ship),
                Value::Int(commit),
                Value::Int(receipt),
                Value::str(domains::SHIP_MODES[skew.pick(7, &mode_zipf, &mode_perm, rng)]),
            ]);
        }
        orders.push(vec![
            Value::Int(o as i64),
            Value::Int(skew.pick(card.customer, &cust_zipf, &cust_perm, rng) as i64),
            Value::str(status),
            Value::Float(total),
            Value::Int(order_date),
            Value::str(domains::PRIORITIES[skew.pick(5, &prio_zipf, &prio_perm, rng)]),
            Value::Int(rng.i64_range(0, 1)),
        ]);
    }

    (
        Table::new("orders", schema::orders(), orders),
        Table::new("lineitem", schema::lineitem(), items),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GenConfig {
        GenConfig::new(0.001, 0.0, 42)
    }

    #[test]
    fn cardinalities_scale() {
        let card = small().cardinalities();
        assert_eq!(card.supplier, 10);
        assert_eq!(card.customer, 150);
        assert_eq!(card.part, 200);
        assert_eq!(card.orders, 1500);
    }

    #[test]
    fn generates_all_tables() {
        let cat = generate(&small());
        let names: Vec<&str> = cat.table_names().collect();
        assert_eq!(
            names,
            vec![
                "customer", "lineitem", "nation", "orders", "part", "partsupp", "region",
                "supplier"
            ]
        );
        assert_eq!(cat.table("region").len(), 5);
        assert_eq!(cat.table("nation").len(), 25);
        assert_eq!(cat.table("orders").len(), 1500);
        let li = cat.table("lineitem").len();
        // 1..=7 lines per order, mean 4.
        assert!((4000..8500).contains(&li), "lineitem={li}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a.table("lineitem").len(), b.table("lineitem").len());
        assert_eq!(
            a.table("lineitem").rows()[17],
            b.table("lineitem").rows()[17]
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GenConfig::new(0.001, 0.0, 1));
        let b = generate(&GenConfig::new(0.001, 0.0, 2));
        assert_ne!(a.table("orders").rows()[0], b.table("orders").rows()[0]);
    }

    #[test]
    fn foreign_keys_are_valid() {
        let cat = generate(&small());
        let n_cust = cat.table("customer").len() as i64;
        let n_part = cat.table("part").len() as i64;
        let n_supp = cat.table("supplier").len() as i64;
        for row in cat.table("orders").rows() {
            let ck = row[1].as_int();
            assert!((0..n_cust).contains(&ck));
        }
        for row in cat.table("lineitem").rows() {
            assert!((0..n_part).contains(&row[1].as_int()));
            assert!((0..n_supp).contains(&row[2].as_int()));
            let ship = row[10].as_int();
            assert!((0..DATE_DOMAIN_DAYS).contains(&ship));
        }
    }

    #[test]
    fn skew_concentrates_foreign_keys() {
        let uni = generate(&GenConfig::new(0.001, 0.0, 7));
        let skw = generate(&GenConfig::new(0.001, 1.0, 7));
        let top_share = |cat: &Catalog| {
            let mut counts = std::collections::HashMap::new();
            for row in cat.table("lineitem").rows() {
                *counts.entry(row[1].as_int()).or_insert(0usize) += 1;
            }
            let mut v: Vec<usize> = counts.into_values().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            let total: usize = v.iter().sum();
            v.iter().take(10).sum::<usize>() as f64 / total as f64
        };
        let u = top_share(&uni);
        let s = top_share(&skw);
        assert!(s > 2.0 * u, "uniform top10 share {u}, skewed {s}");
    }

    #[test]
    fn discount_and_tax_in_domain() {
        let cat = generate(&small());
        for row in cat.table("lineitem").rows() {
            let d = row[6].as_float();
            let t = row[7].as_float();
            assert!((0.0..=0.10).contains(&d));
            assert!((0.0..=0.08).contains(&t));
        }
    }
}
