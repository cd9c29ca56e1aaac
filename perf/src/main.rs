fn main() {
    std::process::exit(recdp_perf::cli::main(std::env::args().skip(1).collect()));
}
