//! Join Order Benchmark (JOB) style workload generator.
//!
//! JOB runs 113 analytic queries (33 families with a/b/c variants) against the
//! real IMDB database; its defining property is *correlated* predicates and
//! join edges that break the optimizer's independence assumption by orders of
//! magnitude (Leis et al., "How good are query optimizers, really?"). We
//! rebuild that shape: a 21-table IMDB-style catalog with strong join skew and
//! predicate correlations, 33 join-shape families derived from composable
//! blocks around the `title` hub, and 113 variant specs instantiated to the
//! paper's 2,300 queries. All queries are `SELECT MIN(...)` scalar aggregates
//! over large multi-way joins, as in the real benchmark.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmp_plan::error::PlanResult;
use wmp_plan::query::{AggFunc, Aggregate, JoinEdge, Predicate, QueryShape, QuerySpec, TableRef};
use wmp_plan::schema::{Column, ColumnType, Distribution, Table};
use wmp_plan::Catalog;

use crate::log::{build_log, QueryLog};
use crate::params::{draw_eq, draw_like, draw_range};

/// Number of query families (matches JOB's 33).
pub const N_FAMILIES: usize = 33;

/// Number of distinct variant specs (matches JOB's 113 queries).
pub const N_VARIANTS: usize = 113;

/// The paper's JOB corpus size.
pub const DEFAULT_QUERY_COUNT: usize = 2_300;

/// Builds the IMDB-style catalog (21 tables).
pub fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(Table::new(
        "title",
        1_000_000,
        vec![
            Column::new("id", ColumnType::Int, 1_000_000),
            Column::new("kind_id", ColumnType::Int, 7),
            Column::new("production_year", ColumnType::Int, 130)
                .with_distribution(Distribution::Zipf(1.1)),
            Column::new("title", ColumnType::Varchar(100), 900_000),
            Column::new("episode_nr", ColumnType::Int, 2_000).with_null_frac(0.7),
        ],
    ));
    cat.add_table(Table::new(
        "movie_info",
        2_000_000,
        vec![
            Column::new("movie_id", ColumnType::Int, 1_000_000),
            Column::new("info_type_id", ColumnType::Int, 113),
            Column::new("info", ColumnType::Varchar(50), 500_000)
                .with_distribution(Distribution::Zipf(1.4)),
        ],
    ));
    cat.add_table(Table::new(
        "movie_info_idx",
        600_000,
        vec![
            Column::new("movie_id", ColumnType::Int, 450_000),
            Column::new("info_type_id", ColumnType::Int, 113),
            Column::new("info", ColumnType::Varchar(10), 1_000),
        ],
    ));
    cat.add_table(Table::new(
        "movie_keyword",
        1_500_000,
        vec![
            Column::new("movie_id", ColumnType::Int, 500_000),
            Column::new("keyword_id", ColumnType::Int, 134_170),
        ],
    ));
    cat.add_table(Table::new(
        "keyword",
        134_170,
        vec![
            Column::new("id", ColumnType::Int, 134_170),
            Column::new("keyword", ColumnType::Varchar(30), 134_170)
                .with_distribution(Distribution::Zipf(1.5)),
        ],
    ));
    cat.add_table(Table::new(
        "movie_companies",
        1_000_000,
        vec![
            Column::new("movie_id", ColumnType::Int, 600_000),
            Column::new("company_id", ColumnType::Int, 235_000),
            Column::new("company_type_id", ColumnType::Int, 4),
        ],
    ));
    cat.add_table(Table::new(
        "company_name",
        235_000,
        vec![
            Column::new("id", ColumnType::Int, 235_000),
            Column::new("name", ColumnType::Varchar(50), 230_000),
            Column::new("country_code", ColumnType::Char(6), 100)
                .with_distribution(Distribution::Zipf(1.5)),
        ],
    ));
    cat.add_table(Table::new(
        "company_type",
        4,
        vec![
            Column::new("id", ColumnType::Int, 4),
            Column::new("kind", ColumnType::Varchar(20), 4),
        ],
    ));
    cat.add_table(Table::new(
        "cast_info",
        3_600_000,
        vec![
            Column::new("movie_id", ColumnType::Int, 900_000),
            Column::new("person_id", ColumnType::Int, 1_000_000),
            Column::new("role_id", ColumnType::Int, 12),
            Column::new("person_role_id", ColumnType::Int, 500_000).with_null_frac(0.5),
            Column::new("note", ColumnType::Varchar(40), 100_000).with_null_frac(0.6),
        ],
    ));
    cat.add_table(Table::new(
        "name",
        1_000_000,
        vec![
            Column::new("id", ColumnType::Int, 1_000_000),
            Column::new("name", ColumnType::Varchar(50), 995_000),
            Column::new("gender", ColumnType::Char(1), 3).with_null_frac(0.3),
        ],
    ));
    cat.add_table(Table::new(
        "char_name",
        500_000,
        vec![
            Column::new("id", ColumnType::Int, 500_000),
            Column::new("name", ColumnType::Varchar(50), 495_000),
        ],
    ));
    cat.add_table(Table::new(
        "role_type",
        12,
        vec![
            Column::new("id", ColumnType::Int, 12),
            Column::new("role", ColumnType::Varchar(20), 12),
        ],
    ));
    cat.add_table(Table::new(
        "info_type",
        113,
        vec![
            Column::new("id", ColumnType::Int, 113),
            Column::new("info", ColumnType::Varchar(30), 113),
        ],
    ));
    cat.add_table(Table::new(
        "kind_type",
        7,
        vec![
            Column::new("id", ColumnType::Int, 7),
            Column::new("kind", ColumnType::Varchar(15), 7),
        ],
    ));
    cat.add_table(Table::new(
        "aka_name",
        200_000,
        vec![
            Column::new("person_id", ColumnType::Int, 150_000),
            Column::new("name", ColumnType::Varchar(50), 195_000),
        ],
    ));
    cat.add_table(Table::new(
        "aka_title",
        100_000,
        vec![
            Column::new("movie_id", ColumnType::Int, 80_000),
            Column::new("title", ColumnType::Varchar(100), 95_000),
        ],
    ));
    cat.add_table(Table::new(
        "movie_link",
        30_000,
        vec![
            Column::new("movie_id", ColumnType::Int, 20_000),
            Column::new("linked_movie_id", ColumnType::Int, 20_000),
            Column::new("link_type_id", ColumnType::Int, 18),
        ],
    ));
    cat.add_table(Table::new(
        "link_type",
        18,
        vec![
            Column::new("id", ColumnType::Int, 18),
            Column::new("link", ColumnType::Varchar(20), 18),
        ],
    ));
    cat.add_table(Table::new(
        "person_info",
        500_000,
        vec![
            Column::new("person_id", ColumnType::Int, 300_000),
            Column::new("info_type_id", ColumnType::Int, 113),
            Column::new("info", ColumnType::Varchar(50), 400_000),
        ],
    ));
    cat.add_table(Table::new(
        "complete_cast",
        135_000,
        vec![
            Column::new("movie_id", ColumnType::Int, 100_000),
            Column::new("subject_id", ColumnType::Int, 4),
            Column::new("status_id", ColumnType::Int, 4),
        ],
    ));
    cat.add_table(Table::new(
        "comp_cast_type",
        4,
        vec![
            Column::new("id", ColumnType::Int, 4),
            Column::new("kind", ColumnType::Varchar(30), 4),
        ],
    ));

    // Primary keys only on true entity tables; IMDB link tables are scanned.
    for t in [
        "title",
        "keyword",
        "company_name",
        "company_type",
        "name",
        "char_name",
        "role_type",
        "info_type",
        "kind_type",
        "link_type",
        "comp_cast_type",
    ] {
        cat.add_index(t, "id", true);
    }

    // JOB's defining property: heavily correlated join edges → the estimator
    // under-estimates intermediate results by large factors.
    let cx = &mut cat.correlations;
    cx.set_join_skew("title", "id", "cast_info", "movie_id", 4.0);
    cx.set_join_skew("title", "id", "movie_info", "movie_id", 3.0);
    cx.set_join_skew("title", "id", "movie_keyword", "movie_id", 2.5);
    cx.set_join_skew("title", "id", "movie_companies", "movie_id", 2.0);
    cx.set_join_skew("title", "id", "movie_info_idx", "movie_id", 1.8);
    cx.set_join_skew("cast_info", "person_id", "name", "id", 1.5);
    cx.set_join_skew("movie_companies", "company_id", "company_name", "id", 1.7);
    cx.set_join_skew("movie_keyword", "keyword_id", "keyword", "id", 1.6);
    cx.set_predicate_correlation("movie_info", "info_type_id", "info", 0.95);
    cx.set_predicate_correlation("title", "production_year", "kind_id", 0.6);
    cx.set_predicate_correlation("company_name", "country_code", "name", 0.5);
    cx.set_predicate_correlation("cast_info", "role_id", "note", 0.7);
    cat
}

/// Composable join blocks around the `title` hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Block {
    /// movie_info ⋈ info_type
    Mi,
    /// movie_keyword ⋈ keyword
    Mk,
    /// movie_companies ⋈ company_name (+ company_type)
    Mc,
    /// cast_info ⋈ name (+ role_type)
    Ci,
    /// kind_type lookup on title
    Kt,
    /// movie_link ⋈ link_type
    Ml,
    /// complete_cast ⋈ comp_cast_type
    Cc,
    /// movie_info_idx ⋈ info_type (second alias)
    Mix,
}

/// A JOB family: the block set joined to `title`.
#[derive(Debug, Clone)]
pub struct JobFamily {
    /// Family id in `0..N_FAMILIES`.
    pub id: usize,
    blocks: Vec<Block>,
}

/// Derives the 33 families: all non-empty subsets of the four main blocks
/// (15), the same subsets with the `kind_type` lookup added (15), and three
/// wide families with link/complete-cast/info-idx blocks.
pub fn families() -> Vec<JobFamily> {
    use Block::*;
    let main = [Mi, Mk, Mc, Ci];
    let mut out = Vec::with_capacity(N_FAMILIES);
    for mask in 1u32..16 {
        let blocks: Vec<Block> = main
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, b)| *b)
            .collect();
        out.push(JobFamily { id: out.len(), blocks });
    }
    for mask in 1u32..16 {
        let mut blocks: Vec<Block> = main
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, b)| *b)
            .collect();
        blocks.push(Kt);
        out.push(JobFamily { id: out.len(), blocks });
    }
    out.push(JobFamily { id: out.len(), blocks: vec![Mi, Mk, Ml] });
    out.push(JobFamily { id: out.len(), blocks: vec![Mi, Mc, Cc] });
    out.push(JobFamily { id: out.len(), blocks: vec![Mi, Mix, Mc] });
    debug_assert_eq!(out.len(), N_FAMILIES);
    out
}

/// A variant = (family, predicate style). JOB's `1a`, `1b`, ... become
/// `(family 0, style 0)`, `(family 0, style 1)`, ...
#[derive(Debug, Clone)]
pub struct JobVariant {
    /// Variant index in `0..N_VARIANTS`.
    pub id: usize,
    /// The underlying family.
    pub family: JobFamily,
    /// Predicate style (0 = LIKE-heavy, 1 = type-equality, 2 = year-range,
    /// 3 = extra predicates).
    pub style: usize,
}

/// Derives the 113 variants: every family × 3 styles, plus a 4th style for
/// the first 14 families (33·3 + 14 = 113).
pub fn variants() -> Vec<JobVariant> {
    let fams = families();
    let mut out = Vec::with_capacity(N_VARIANTS);
    for style in 0..3 {
        for fam in &fams {
            out.push(JobVariant { id: out.len(), family: fam.clone(), style });
        }
    }
    for fam in fams.iter().take(N_VARIANTS - out.len()) {
        out.push(JobVariant { id: out.len(), family: fam.clone(), style: 3 });
    }
    debug_assert_eq!(out.len(), N_VARIANTS);
    out
}

/// Instantiates one query from a variant with sampled parameters.
///
/// The skeleton (joins, which predicates exist, range widths) is fixed by the
/// variant id; per-query randomness only affects bind values and their true
/// selectivities — matching how JOB's 113 queries are re-parameterized.
pub fn instantiate(cat: &Catalog, v: &JobVariant, id: u64, rng: &mut StdRng) -> QuerySpec {
    let mut struct_rng =
        StdRng::seed_from_u64(0x10B_5EED ^ (v.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let col = |t: &str, c: &str| cat.column(t, c).expect("catalog column").1;
    let mut tables = vec![TableRef::new("title", "t")];
    let mut joins: Vec<JoinEdge> = Vec::new();
    let mut predicates: Vec<Predicate> = Vec::new();
    let mut aggregates =
        vec![Aggregate { func: AggFunc::Min, table_alias: "t".into(), column: "title".into() }];
    let like_heavy = v.style == 0;
    let extra_preds = v.style == 3;

    let join = |tables: &mut Vec<TableRef>,
                joins: &mut Vec<JoinEdge>,
                la: &str,
                lc: &str,
                table: &str,
                alias: &str,
                rc: &str| {
        tables.push(TableRef::new(table, alias));
        joins.push(JoinEdge {
            left_alias: la.into(),
            left_col: lc.into(),
            right_alias: alias.into(),
            right_col: rc.into(),
        });
    };

    // Title predicate: year range (always in style 2; often otherwise).
    if v.style == 2 || struct_rng.gen_bool(0.6) {
        let frac = [0.05, 0.1, 0.2, 0.4][struct_rng.gen_range(0..4)];
        predicates.push(draw_range("t", col("title", "production_year"), frac, rng));
    }

    for block in &v.family.blocks {
        match block {
            Block::Mi => {
                join(&mut tables, &mut joins, "t", "id", "movie_info", "mi", "movie_id");
                join(&mut tables, &mut joins, "mi", "info_type_id", "info_type", "it", "id");
                predicates.push(draw_eq("it", col("info_type", "info"), rng));
                if like_heavy || extra_preds {
                    predicates.push(draw_like("mi", col("movie_info", "info"), rng));
                }
            }
            Block::Mk => {
                join(&mut tables, &mut joins, "t", "id", "movie_keyword", "mk", "movie_id");
                join(&mut tables, &mut joins, "mk", "keyword_id", "keyword", "k", "id");
                if like_heavy {
                    predicates.push(draw_like("k", col("keyword", "keyword"), rng));
                } else {
                    predicates.push(draw_eq("k", col("keyword", "keyword"), rng));
                }
            }
            Block::Mc => {
                join(&mut tables, &mut joins, "t", "id", "movie_companies", "mc", "movie_id");
                join(&mut tables, &mut joins, "mc", "company_id", "company_name", "cn", "id");
                predicates.push(draw_eq("cn", col("company_name", "country_code"), rng));
                if extra_preds {
                    join(
                        &mut tables,
                        &mut joins,
                        "mc",
                        "company_type_id",
                        "company_type",
                        "ct",
                        "id",
                    );
                    predicates.push(draw_eq("ct", col("company_type", "kind"), rng));
                }
                aggregates.push(Aggregate {
                    func: AggFunc::Min,
                    table_alias: "cn".into(),
                    column: "name".into(),
                });
            }
            Block::Ci => {
                join(&mut tables, &mut joins, "t", "id", "cast_info", "ci", "movie_id");
                join(&mut tables, &mut joins, "ci", "person_id", "name", "n", "id");
                if like_heavy {
                    predicates.push(draw_like("n", col("name", "name"), rng));
                } else {
                    predicates.push(draw_eq("n", col("name", "gender"), rng));
                }
                if extra_preds {
                    join(&mut tables, &mut joins, "ci", "role_id", "role_type", "rt", "id");
                    predicates.push(draw_eq("rt", col("role_type", "role"), rng));
                }
                aggregates.push(Aggregate {
                    func: AggFunc::Min,
                    table_alias: "n".into(),
                    column: "name".into(),
                });
            }
            Block::Kt => {
                join(&mut tables, &mut joins, "t", "kind_id", "kind_type", "kt", "id");
                predicates.push(draw_eq("kt", col("kind_type", "kind"), rng));
            }
            Block::Ml => {
                join(&mut tables, &mut joins, "t", "id", "movie_link", "ml", "movie_id");
                join(&mut tables, &mut joins, "ml", "link_type_id", "link_type", "lt", "id");
                predicates.push(draw_eq("lt", col("link_type", "link"), rng));
            }
            Block::Cc => {
                join(&mut tables, &mut joins, "t", "id", "complete_cast", "cc", "movie_id");
                join(&mut tables, &mut joins, "cc", "subject_id", "comp_cast_type", "cct", "id");
                predicates.push(draw_eq("cct", col("comp_cast_type", "kind"), rng));
            }
            Block::Mix => {
                join(&mut tables, &mut joins, "t", "id", "movie_info_idx", "mix", "movie_id");
                join(&mut tables, &mut joins, "mix", "info_type_id", "info_type", "it2", "id");
                predicates.push(draw_eq("it2", col("info_type", "info"), rng));
            }
        }
    }

    QuerySpec::new(
        id,
        QueryShape {
            tables,
            joins,
            predicates,
            group_by: Vec::new(),
            aggregates,
            order_by: Vec::new(),
            distinct: false,
            limit: None,
        },
    )
}

/// Generates a JOB-style query log of `n` queries.
///
/// # Errors
/// Propagates planning errors (which would indicate a family/catalog bug).
pub fn generate(n: usize, seed: u64) -> PlanResult<QueryLog> {
    let cat = catalog();
    let vars = variants();
    let mut specs = Vec::with_capacity(n);
    for i in 0..n {
        let v = &vars[i % vars.len()];
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        specs.push((instantiate(&cat, v, i as u64, &mut rng), v.id));
    }
    build_log("job", cat, specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_twenty_one_tables() {
        let cat = catalog();
        assert_eq!(cat.tables().len(), 21);
        assert!(cat.has_index("title", "id"));
        assert!(!cat.has_index("movie_info", "movie_id"));
    }

    #[test]
    fn thirty_three_families_and_113_variants() {
        let fams = families();
        assert_eq!(fams.len(), N_FAMILIES);
        let mut seen = std::collections::HashSet::new();
        for f in &fams {
            assert!(seen.insert(f.blocks.clone()), "family blocks must be unique");
        }
        let vars = variants();
        assert_eq!(vars.len(), N_VARIANTS);
    }

    #[test]
    fn all_variants_plan_successfully() {
        let cat = catalog();
        let planner = wmp_plan::Planner::new(&cat);
        for (i, v) in variants().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let spec = instantiate(&cat, v, i as u64, &mut rng);
            planner.plan(&spec).unwrap_or_else(|e| panic!("variant {i} failed: {e}"));
        }
    }

    #[test]
    fn queries_are_scalar_min_aggregates() {
        let cat = catalog();
        let vars = variants();
        let mut rng = StdRng::seed_from_u64(0);
        for v in vars.iter().take(20) {
            let spec = instantiate(&cat, v, 0, &mut rng);
            assert!(spec.group_by.is_empty());
            assert!(spec.order_by.is_empty());
            assert!(!spec.aggregates.is_empty());
            assert!(spec.aggregates.iter().all(|a| a.func == AggFunc::Min));
            assert!(wmp_sql::render_sql_dialect(&spec, &wmp_sql::Ansi).contains("MIN("));
        }
    }

    #[test]
    fn generate_covers_all_variants() {
        let log = generate(226, 3).unwrap(); // two per variant
        assert_eq!(log.len(), 226);
        let hints: std::collections::HashSet<usize> =
            log.records.iter().map(|r| r.template_hint).collect();
        assert_eq!(hints.len(), N_VARIANTS);
    }

    #[test]
    fn joins_dominate_memory() {
        // JOB queries have no sorts/group-bys: their memory is hash joins.
        let log = generate(50, 1).unwrap();
        use wmp_plan::OpKind;
        for r in &log.records {
            let sorts = r.features[2 * OpKind::Sort.index()];
            let hashaggs = r.features[2 * OpKind::HashAggregate.index()];
            assert_eq!(sorts, 0.0);
            assert_eq!(hashaggs, 0.0);
        }
        assert!(log.mean_true_memory_mb() > 1.0);
    }

    #[test]
    fn dbms_estimates_skew_low_on_job() {
        // Join skew makes truths systematically exceed heuristic estimates in
        // aggregate: the big joins are badly under-estimated (the residual
        // tail the paper's violins show), even though tiny queries get padded
        // by base reservations.
        let log = generate(300, 5).unwrap();
        let mean_est: f64 =
            log.records.iter().map(|r| r.dbms_estimate_mb()).sum::<f64>() / log.len() as f64;
        let mean_true = log.mean_true_memory_mb();
        assert!(
            mean_true > 2.0 * mean_est,
            "aggregate under-estimation expected: est {mean_est:.2} vs true {mean_true:.2}"
        );
        // Among the memory-heavy half, under-estimation dominates.
        let mut sorted: Vec<&crate::log::QueryRecord> = log.records.iter().collect();
        sorted.sort_by(|a, b| b.true_memory_mb().partial_cmp(&a.true_memory_mb()).unwrap());
        let heavy = &sorted[..sorted.len() / 2];
        let under = heavy.iter().filter(|r| r.dbms_estimate_mb() < r.true_memory_mb()).count();
        assert!(
            under as f64 > 0.55 * heavy.len() as f64,
            "heavy queries should under-estimate: {under}/{}",
            heavy.len()
        );
    }
}
