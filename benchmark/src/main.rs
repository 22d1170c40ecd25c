//! The benchmark binary for the end-to-end run (no allocator wrapper).

fn main() -> std::process::ExitCode {
    manimal_benchmark::main_with(None)
}
