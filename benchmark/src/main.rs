//! `ossm-benchmark`: see the crate documentation and `README.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let code = ossm_benchmark::main_with(&args, &mut stdout.lock());
    std::process::exit(code);
}
