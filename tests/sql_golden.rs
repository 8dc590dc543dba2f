//! SQL front-end golden: the rendered text, the lowered spec, and every
//! rejection, pinned as FNV-1a digests. Any change to the tokenizer, the
//! parser, lowering or the renderer must reproduce these exactly: specs from
//! the TPC-H, TPC-DS and JOB generators are rendered and parsed back under
//! every dialect, and the negative corpora of `tests/sql_corpus.rs` (copied
//! below) are rejected with the same kind, span and message.

use learnedwmp::plan::catalog::Catalog;
use learnedwmp::plan::query::{Name, QuerySpec};
use learnedwmp::sql::{all_dialects, parse_to_spec, render_sql_dialect, Dialect};
use learnedwmp::workloads::{job, tpcds, tpch};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Specs drawn from each generator.
const N_SPECS: usize = 300;

/// FNV-1a, fed one string at a time; a NUL after each keeps `"ab" + "c"`
/// and `"a" + "bc"` apart.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, s: &str) {
        for &b in s.as_bytes().iter().chain(&[0u8]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Renders each spec under `dialect` and parses it back, digesting the
/// rendered text and the `Debug` form of the parse result separately.
fn digest_specs(
    name: &str,
    specs: &[QuerySpec],
    catalog: &Catalog,
    dialect: &dyn Dialect,
) -> String {
    let (mut text, mut parsed) = (Fnv::new(), Fnv::new());
    for spec in specs {
        let sql = render_sql_dialect(spec, dialect);
        text.feed(&sql);
        parsed.feed(&format!("{:?}", parse_to_spec(&sql, dialect, catalog)));
    }
    format!("{name} {} render={:016x} parse={:016x}", dialect.name(), text.0, parsed.0)
}

fn rng(seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn tpch_specs() -> Vec<QuerySpec> {
    let cat = tpch::catalog();
    (0..N_SPECS)
        .map(|i| tpch::instantiate(&cat, i % tpch::N_TEMPLATES, i as u64, &mut rng(11, i)))
        .collect()
}

fn tpcds_specs() -> Vec<QuerySpec> {
    let cat = tpcds::catalog();
    let templates = tpcds::templates();
    (0..N_SPECS)
        .map(|i| {
            tpcds::instantiate(&cat, &templates[i % templates.len()], i as u64, &mut rng(12, i))
        })
        .collect()
}

fn job_specs() -> Vec<QuerySpec> {
    let cat = job::catalog();
    let variants = job::variants();
    (0..N_SPECS)
        .map(|i| job::instantiate(&cat, &variants[i % variants.len()], i as u64, &mut rng(13, i)))
        .collect()
}

/// Aliases that must be quoted: mixed case, reserved words, an embedded
/// quote of each dialect, and a space.
const QUOTED_ALIASES: [&str; 6] = ["Line", "from", "a\"b", "Select", "x`y", "odd name"];

/// `specs` with the i-th FROM binding of each spec renamed to
/// `QUOTED_ALIASES[i]`, everywhere the alias is referenced.
fn with_quoted_aliases(specs: &[QuerySpec]) -> Vec<QuerySpec> {
    specs
        .iter()
        .map(|spec| {
            let mut q = spec.clone();
            let rename = |alias: &mut Name| {
                if let Some(i) = spec.tables.iter().position(|t| t.alias == *alias) {
                    *alias = QUOTED_ALIASES[i % QUOTED_ALIASES.len()].into();
                }
            };
            let shape = q.shape_mut();
            for t in &mut shape.tables {
                rename(&mut t.alias);
            }
            for j in &mut shape.joins {
                rename(&mut j.left_alias);
                rename(&mut j.right_alias);
            }
            for p in &mut shape.predicates {
                rename(&mut p.table_alias);
            }
            for a in &mut shape.aggregates {
                rename(&mut a.table_alias);
            }
            for (alias, _) in shape.group_by.iter_mut().chain(&mut shape.order_by) {
                rename(alias);
            }
            q
        })
        .collect()
}

#[test]
fn generated_specs_render_and_parse_to_their_golden_digests() {
    let sets = [
        ("tpch", tpch_specs(), tpch::catalog()),
        ("tpch-quoted", with_quoted_aliases(&tpch_specs()), tpch::catalog()),
        ("tpcds", tpcds_specs(), tpcds::catalog()),
        ("job", job_specs(), job::catalog()),
    ];
    let mut lines = Vec::new();
    for (name, specs, catalog) in &sets {
        for dialect in all_dialects() {
            lines.push(digest_specs(name, specs, catalog, dialect));
        }
    }
    assert_eq!(lines, GOLDEN_SPECS);
}

/// `SYNTAX_CORPUS` of `tests/sql_corpus.rs`.
const SYNTAX_CORPUS: [&str; 30] = [
    "",
    "   \t\n",
    "SELECT",
    "UPDATE t SET a = 1",
    "INSERT INTO t VALUES (1)",
    "DELETE FROM t",
    "SELECT , FROM t",
    "SELECT t.a FROM t WHERE",
    "SELECT t.a FROM t WHERE t.a >",
    "SELECT t.a FROM t WHERE t.a BETWEEN 1",
    "SELECT t.a FROM t WHERE t.a IN",
    "SELECT t.a FROM t GROUP BY",
    "SELECT t.a FROM t ORDER t.a",
    "SELECT t.a FROM t WHERE t.a = 1 OR t.b = 2",
    "SELECT t.a FROM t WHERE NOT t.a = 1",
    "SELECT t.a FROM t WHERE t.a IS NULL",
    "SELECT t.a FROM t WHERE EXISTS (SELECT u.b FROM u)",
    "SELECT t.a FROM t WHERE t.a IN (SELECT u.b FROM u)",
    "SELECT t.a FROM (SELECT u.b FROM u) t",
    "SELECT t.a FROM t LEFT JOIN u ON t.a = u.a",
    "SELECT t.a FROM t FULL OUTER JOIN u ON t.a = u.a",
    "SELECT t.a FROM t HAVING t.a > 1",
    "SELECT t.a FROM t LIMIT 10 OFFSET 5",
    "SELECT DISTINCT COUNT(DISTINCT t.a) FROM t",
    "SELECT t.a FROM t CROSS JOIN u ON t.a = u.a",
    "SELECT t.a FROM t LIMIT 99999999999999999999999",
    "SELECT t.a FROM t WHERE t.a = 'unterminated",
    "SELECT t.a FROM t WHERE t.a = 1 ; SELECT u.b FROM u",
    "SELECT t.a FROM t extra nonsense",
    "SELECT t.a FROM t WHERE t.a @ 1",
];

/// The lowering corpus of `tests/sql_corpus.rs`.
const LOWERING_CORPUS: [&str; 4] = [
    "SELECT t.x FROM no_such_table t",
    "SELECT l.no_such_col FROM lineitem l WHERE l.no_such_col = 1",
    "SELECT z.l_quantity FROM lineitem l WHERE z.l_quantity = 1",
    "SELECT l.* FROM lineitem l, orders l WHERE l.l_quantity = 1",
];

/// The statement `tests/sql_corpus.rs` truncates at every byte.
const TRUNCATED: &str = "SELECT l.l_returnflag, SUM(l.l_quantity), COUNT(*) FROM lineitem AS l, \
                         orders o WHERE l.l_orderkey = o.o_orderkey AND l.l_shipdate BETWEEN 10 AND 20 \
                         AND l.l_shipmode IN ('AIR', 'MAIL') AND o.o_orderpriority LIKE '%high%' \
                         GROUP BY l.l_returnflag ORDER BY l.l_returnflag FETCH FIRST 100 ROWS ONLY";

/// The pseudo-garbage statements of `tests/sql_corpus.rs`.
fn garbage() -> Vec<String> {
    let alphabet: Vec<char> =
        "SELECT from\"'`$?;().,*<>=!_- \n\u{e9}\u{4e16}0123456789".chars().collect();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..200)
        .map(|len| {
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    alphabet[(state >> 33) as usize % alphabet.len()]
                })
                .collect()
        })
        .collect()
}

#[test]
fn corpus_rejections_match_their_golden_digests() {
    let catalog = tpch::catalog();
    let garbage = garbage();
    let prefixes = (0..=TRUNCATED.len())
        .filter(|&end| TRUNCATED.is_char_boundary(end))
        .map(|end| &TRUNCATED[..end]);
    let statements: Vec<&str> = SYNTAX_CORPUS
        .iter()
        .chain(&LOWERING_CORPUS)
        .copied()
        .chain(prefixes)
        .chain(garbage.iter().map(String::as_str))
        .collect();
    let mut lines = Vec::new();
    for dialect in all_dialects() {
        let (mut digest, mut rejected) = (Fnv::new(), 0);
        for sql in &statements {
            match parse_to_spec(sql, dialect, &catalog) {
                Ok(_) => digest.feed("ok"),
                Err(e) => {
                    rejected += 1;
                    let span = e.span();
                    digest.feed(&format!("{} {}..{} {e}", e.kind(), span.start, span.end));
                }
            }
        }
        lines.push(format!("{} rejected={rejected} digest={:016x}", dialect.name(), digest.0));
    }
    assert_eq!(lines, GOLDEN_REJECTIONS);
}

const GOLDEN_SPECS: [&str; 12] = [
    "tpch ansi render=37e0d96f8fe5810b parse=b148aff9d2cd1a72",
    "tpch postgres render=7d71b1f798275433 parse=b148aff9d2cd1a72",
    "tpch mysql render=7d71b1f798275433 parse=b148aff9d2cd1a72",
    "tpch-quoted ansi render=bf1171656a00c2d7 parse=270515fd7d9da8f4",
    "tpch-quoted postgres render=bc33244d15a86e3f parse=270515fd7d9da8f4",
    "tpch-quoted mysql render=a00a43a38263c601 parse=833d7432c7d29980",
    "tpcds ansi render=22d739eca03e9ce8 parse=ad7119886da7bbf3",
    "tpcds postgres render=137c6b2eda735516 parse=ad7119886da7bbf3",
    "tpcds mysql render=137c6b2eda735516 parse=ad7119886da7bbf3",
    "job ansi render=e0071d125e39a189 parse=23447f9d7b015d0d",
    "job postgres render=e0071d125e39a189 parse=23447f9d7b015d0d",
    "job mysql render=e0071d125e39a189 parse=23447f9d7b015d0d",
];

const GOLDEN_REJECTIONS: [&str; 3] = [
    "ansi rejected=510 digest=15314f27a658dfdf",
    "postgres rejected=510 digest=9927292b521f2be9",
    "mysql rejected=510 digest=59fb369637bb5184",
];
