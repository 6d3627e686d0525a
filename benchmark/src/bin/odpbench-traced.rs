//! The per-layer binary: spans around every call into a layer, and a
//! counting allocator. End-to-end numbers never come from here.

#[global_allocator]
static ALLOC: odpbench::alloc::Counting = odpbench::alloc::Counting;

fn main() -> std::process::ExitCode {
    odpbench::modes::main_with(true)
}
