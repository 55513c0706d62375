//! Where do two traces first differ?
//!
//! Reads two JSONL trace exports (`Trace::jsonl`, e.g. from two commits or
//! two engines) and prints the first line at which they disagree, with the
//! event's rank and virtual time and three lines of context on each side.
//! Exits 0 when the traces are identical, 1 when they differ.
//!
//! ```sh
//! cargo run --release --example trace_diff -- a.jsonl b.jsonl
//! ```

use hetero_trace::first_divergence;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = paths.as_slice() else {
        eprintln!("usage: trace_diff <a.jsonl> <b.jsonl>");
        std::process::exit(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("trace_diff: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    match first_divergence(&read(a), &read(b)) {
        None => println!("identical"),
        Some(d) => {
            print!("{d}");
            std::process::exit(1);
        }
    }
}
