//! The counting allocator behind every allocation budget, checked
//! against allocations whose count is known: it counts this thread's
//! `alloc` and `realloc` calls, and nothing another thread allocates.

use odp_sim::alloc::{counted, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn it_counts_this_threads_allocs_and_reallocs() {
    let (boxed, allocs) = counted(|| Box::new(7u64));
    assert_eq!((*boxed, allocs), (7, 1), "a Box::new is one alloc");
    let mut v: Vec<u64> = Vec::with_capacity(1);
    let ((), allocs) = counted(|| {
        v.push(1);
        v.push(2);
    });
    assert_eq!(allocs, 1, "growing past capacity is one realloc");
    let ((), allocs) = counted(|| drop(v));
    assert_eq!(allocs, 0, "a free is not an allocation");
}

#[test]
fn it_does_not_count_what_a_spawned_thread_allocates() {
    let handle = std::thread::spawn(|| Box::new([0u8; 64]));
    let (boxed, allocs) = counted(|| handle.join().expect("the thread returns its box"));
    assert_eq!(boxed.len(), 64);
    assert_eq!(allocs, 0, "the box was allocated on the spawned thread");
}
