//! The crate's shipped user.

fn main() {
    println!(
        "{:?} {} {} {}",
        deadpub::live_entry(),
        deadpub::wrongly_waived(),
        deadpub::build().size(),
        String::new(),
    );
}
