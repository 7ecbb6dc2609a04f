//! Golden bit-identity of every family's features, MVC greedy covers and
//! penalty QUBOs.
//!
//! The committed fixture `tests/fixtures/problem_bits.txt` was written by
//! the eager-build code that preceded the lazily built penalty programs,
//! so this test pins today's encodings against *that* code, not against
//! a second run of the current one. Covered: each family's micro corpus
//! at seed 7, plus one instance per family at the serving benchmark's
//! cold-upload sizes (TSP-30 from coordinates, MVC-120, QAP-16,
//! Max-Cut-120, knapsack-120, and MVC-120 again with unit weights),
//! decoded from its wire form the way an `instance` upload is. Per
//! instance the fixture records every feature's bit pattern, the MVC
//! greedy cover, and an FNV-1a hash of `to_qubo(A)` for
//! A ∈ {0.02, 1, 20} over the offset, linear terms, CSR row offsets,
//! column indices and coupling values.
//!
//! Regenerate with `QROSS_WRITE_GOLDEN=1 cargo test --test
//! golden_problem_bits` — only for a deliberate encoding change, which
//! then has to be argued in the change log.

use qross_repro::mathkit::rng::derive_rng;
use qross_repro::problems::{
    lookup_family, registry, CorpusTier, FamilyProblem, KnapsackInstance, MaxCutInstance,
    MvcInstance, QapInstance, TspInstance,
};
use qross_repro::qubo::QuboModel;
use rand::Rng;

const FIXTURE_PATH: &str = "tests/fixtures/problem_bits.txt";
const CORPUS_SEED: u64 = 7;
const RELAXATIONS: [f64; 3] = [0.02, 1.0, 20.0];

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn qubo_hash(q: &QuboModel) -> u64 {
    let n = q.num_vars();
    let mut h = Fnv::new();
    h.word(n as u64);
    h.word(q.offset().to_bits());
    for &l in q.linear_terms() {
        h.word(l.to_bits());
    }
    let mut row_offset = 0u64;
    h.word(row_offset);
    for i in 0..n {
        row_offset += q.degree(i) as u64;
        h.word(row_offset);
    }
    for i in 0..n {
        for &c in q.neighbor_cols(i) {
            h.word(u64::from(c));
        }
    }
    for i in 0..n {
        for &w in q.neighbor_weights(i) {
            h.word(w.to_bits());
        }
    }
    h.0
}

/// One instance at the serving benchmark's cold-upload size per family,
/// round-tripped through its family's wire decode.
fn cold_instances() -> Vec<Box<dyn FamilyProblem>> {
    let mut rng = derive_rng(CORPUS_SEED, 0xC01D);
    let coords: Vec<(f64, f64)> = (0..30)
        .map(|_| {
            (
                rng.gen_range(0..4000) as f64 * 0.25,
                rng.gen_range(0..4000) as f64 * 0.25,
            )
        })
        .collect();
    let tsp = qross_repro::problems::family::tsp_instance_data(&TspInstance::from_coords(
        "cold-tsp30",
        &coords,
    ));
    let mvc = MvcInstance::random_gnp("cold-mvc120", 120, 0.4, 11);
    // Unit weights turn every greedy-cover pick into a tie-break.
    let flat = MvcInstance::new("cold-mvc120-flat", vec![1.0; 120], mvc.edges().to_vec())
        .expect("edges of a valid instance");
    let others: [Box<dyn FamilyProblem>; 5] = [
        Box::new(mvc),
        Box::new(flat),
        Box::new(QapInstance::random("cold-qap16", 16, 12)),
        Box::new(MaxCutInstance::random_gnp("cold-maxcut120", 120, 0.4, 13)),
        Box::new(KnapsackInstance::random("cold-knapsack120", 120, 14)),
    ];
    let mut out = vec![lookup_family("tsp")
        .unwrap()
        .decode(&tsp)
        .expect("cold TSP decodes")];
    for p in &others {
        let family = lookup_family(p.family()).unwrap();
        out.push(family.decode(&p.to_data()).expect("cold instance decodes"));
    }
    out
}

fn fixture_line(p: &dyn FamilyProblem) -> String {
    let features: Vec<String> = p
        .features()
        .iter()
        .map(|f| format!("{:016x}", f.to_bits()))
        .collect();
    let cover = if p.family() == "mvc" {
        let data = p.to_data();
        let edges = data.edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let g = MvcInstance::new(&data.name, data.vecs[0].clone(), edges).unwrap();
        g.greedy_cover().iter().map(|b| b.to_string()).collect()
    } else {
        "-".to_string()
    };
    let qubos: Vec<String> = RELAXATIONS
        .iter()
        .map(|&a| format!("{:016x}", qubo_hash(&p.to_qubo(a))))
        .collect();
    format!(
        "{} {} features={} cover={} qubo={}",
        p.family(),
        p.name(),
        features.join(","),
        cover,
        qubos.join(",")
    )
}

fn current_lines() -> Vec<String> {
    let mut problems: Vec<Box<dyn FamilyProblem>> = Vec::new();
    for family in registry() {
        problems.extend(family.corpus(CorpusTier::Micro, CORPUS_SEED));
    }
    problems.extend(cold_instances());
    problems.iter().map(|p| fixture_line(p.as_ref())).collect()
}

#[test]
fn problem_bits_match_the_golden_fixture() {
    let lines = current_lines();
    if std::env::var("QROSS_WRITE_GOLDEN").is_ok() {
        std::fs::write(FIXTURE_PATH, lines.join("\n") + "\n").expect("write fixture");
        println!("wrote {FIXTURE_PATH}");
    }
    let fixture = std::fs::read_to_string(FIXTURE_PATH).expect("fixture missing — see test doc");
    let expected: Vec<&str> = fixture.lines().collect();
    assert_eq!(lines.len(), expected.len(), "instance count changed");
    for (got, want) in lines.iter().zip(&expected) {
        assert_eq!(got, want, "bits diverged from the golden fixture");
    }
}
