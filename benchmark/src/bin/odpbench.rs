//! The end-to-end binary: no tracing, the system allocator.

fn main() -> std::process::ExitCode {
    odpbench::modes::main_with(false)
}
