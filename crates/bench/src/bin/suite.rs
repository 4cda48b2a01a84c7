//! The experiment runner, and the crate's only binary: any subset of the
//! registered figures/ablations (`--only <id>` for one) in one process
//! over one shared context. See `--help` for flags.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match mpleo_bench::runner::parse_args(&args) {
        Ok(cmd) => mpleo_bench::runner::execute(cmd),
        Err(e) => {
            eprintln!("suite: {e}");
            2
        }
    };
    std::process::exit(code);
}
