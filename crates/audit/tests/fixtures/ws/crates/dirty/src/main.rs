//! Binary root: argv/clock reads and aborts are legitimate here, so none
//! of the needles below may produce findings. It also names every `pub`
//! item of the `clean`, `dirty` and `locks` fixtures, so `dead-pub`
//! leaves those crates alone.

fn main() {
    let arg = std::env::args().nth(1).unwrap();
    let started = std::time::Instant::now();
    println!("{arg} {:?}", started.elapsed());
    let _clean = (clean::dedup, clean::totals, clean::describe, clean::lock, clean::parity);
    let _dirty = (
        dirty::hash_iteration_total,
        dirty::ambient_seed,
        dirty::stamp,
        dirty::configured_threads,
        dirty::first_byte,
        dirty::checked_first,
        dirty::misnamed_waiver,
        dirty::reasonless_waiver,
        dirty::tidy,
    );
    let _locks = (locks::Pair::alpha_then_beta, locks::Pair::beta_then_alpha);
}
