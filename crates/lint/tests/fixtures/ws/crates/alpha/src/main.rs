//! Fixture bin entrypoint: literal indexes are sanctioned here.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let _ = &args[0];
}
