//! The generator corpus: one digest per generated edge list, and one per
//! its Ising encoding, for every [`GsetFamily`] at several sizes, mean
//! degrees and seeds, plus every instance of the paper suite. Any change
//! to the generators or the Max-Cut encoding that moves an edge, a weight
//! bit or a draw of the RNG shows up as a changed line.
//!
//! The digests come from the release codegen that produces the goldens
//! (`cargo test --release -p fecim-gset`); rewrite the fixture with
//! `GOLDEN_REGEN=1 cargo test --release -p fecim-gset --test generator_corpus`
//! and review the diff.

use fecim_gset::{paper_suite, GeneratorConfig, Graph, GsetFamily};
use fecim_ising::CopProblem;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of the vertex count and the edge list, in order.
fn edge_digest(graph: &Graph) -> u64 {
    let mut d = Digest::new();
    d.word(graph.vertex_count() as u64);
    d.word(graph.edge_count() as u64);
    for &(u, v, w) in graph.edges() {
        d.word(u as u64);
        d.word(v as u64);
        d.word(w.to_bits());
    }
    d.0
}

/// Digest of the Max-Cut Ising encoding: every CSR row, in order.
fn encoding_digest(graph: &Graph) -> u64 {
    let model = graph
        .to_max_cut()
        .to_ising()
        .expect("generated graphs encode");
    let couplings = model.couplings();
    let mut d = Digest::new();
    d.word(model.dimension() as u64);
    for i in 0..model.dimension() {
        let (cols, values) = couplings.row_entries(i);
        d.word(cols.len() as u64);
        for (&j, &v) in cols.iter().zip(values) {
            d.word(j as u64);
            d.word(v.to_bits());
        }
    }
    d.0
}

fn line(label: &str, config: &GeneratorConfig) -> String {
    let graph = config.generate();
    format!(
        "{label} n={} family={:?} degree={} seed={:#x} edges={} edge_digest={:016x} encoding_digest={:016x}\n",
        config.vertex_count,
        config.family,
        config.mean_degree,
        config.seed,
        graph.edge_count(),
        edge_digest(&graph),
        encoding_digest(&graph),
    )
}

fn corpus() -> String {
    let mut text = String::new();
    for family in GsetFamily::all() {
        for n in [0usize, 1, 2, 5, 17, 64, 333] {
            // Degrees below, at and above n − 1 (the complete graph).
            for degree in [
                0.5,
                4.0,
                10.0,
                n.saturating_sub(1).max(1) as f64,
                n as f64 + 5.0,
            ] {
                for seed in [1u64, 0xDEAD_BEEF] {
                    let config = GeneratorConfig::new(n, seed)
                        .with_family(family)
                        .with_mean_degree(degree);
                    text.push_str(&line("grid", &config));
                }
            }
        }
    }
    for instance in paper_suite() {
        text.push_str(&line(&instance.label, &instance.config));
    }
    text
}

fn path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/generator_corpus.txt")
}

#[test]
fn generated_instances_match_the_corpus() {
    let corpus = corpus();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(path(), &corpus).expect("write the generator corpus");
        return;
    }
    let committed = std::fs::read_to_string(path()).expect("the generator corpus is committed");
    for (k, (ours, theirs)) in corpus.lines().zip(committed.lines()).enumerate() {
        assert_eq!(ours, theirs, "corpus line {} drifted", k + 1);
    }
    assert_eq!(
        corpus.lines().count(),
        committed.lines().count(),
        "corpus length"
    );
}
