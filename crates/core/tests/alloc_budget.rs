//! Heap-allocation budget of the reliable link's per-frame path.
//!
//! A counting global allocator wraps the system one and counts every
//! `alloc`, `alloc_zeroed` and `realloc` made on a thread that switched
//! counting on. The binary holds a single test function, so no other test
//! shares the counter.
//!
//! The test drives a [`ReliableLink`] the way the benchmark's link probe
//! does: groups of 32 record frames 40 us apart, a `pump` after every send,
//! then the pessimistic ack wait and the verified delivery. The link is the
//! benchmark's `lossy_group` link at 20% loss (5% duplication, 2%
//! corruption, 10% reordering, 300 us jitter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use ftjvm_core::{Record, ReliableLink};
use ftjvm_netsim::{LossyChannel, NetFaultPlan, NetParams, SimTime};
use ftjvm_vm::VtPath;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only bumps
// a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Frames per ack wait, as in the benchmark's link probe.
const GROUP: usize = 32;

/// Sends `frames` from `now` in groups of [`GROUP`]; returns the clock
/// after the last ack wait and the number of frames delivered.
fn link_loop(link: &mut ReliableLink, mut now: SimTime, frames: &[Bytes]) -> (SimTime, usize) {
    let step = SimTime::from_micros(40);
    let mut delivered = 0;
    for group in frames.chunks(GROUP) {
        for f in group {
            now += step;
            link.send(now, f.clone());
            link.pump(now);
        }
        now = link.ack_arrival(now);
        delivered += link.recv_verified(now).len();
    }
    (now, delivered)
}

/// Lock-acquisition and heartbeat frames of the fixed codec.
fn record_frames(n: u64) -> Vec<Bytes> {
    let t = VtPath::root();
    (0..n)
        .map(|i| match i % 8 {
            7 => Record::Heartbeat { now_ns: i * 1_000 }.encode(),
            _ => Record::LockAcq { t: t.clone(), t_asn: i, l_id: i % 5, l_asn: i }.encode(),
        })
        .collect()
}

/// Measured after the send, seal, pump and ack-wait path stopped
/// allocating per arrival, per pump pass and per expiry: 2.2 allocations
/// per sent frame here. The same loop read 6.4 before. What remains is
/// the seal (the frame buffer and its shared copy), receive-window
/// bookkeeping for out-of-order frames, corrupted copies, and the `Vec`
/// each `recv_verified` hands back.
const ALLOCS_PER_FRAME: f64 = 2.5;

#[test]
fn reliable_link_allocation_budget() {
    let plan = NetFaultPlan {
        seed: 0xA110C,
        drop: 0.20,
        duplicate: 0.05,
        corrupt: 0.02,
        reorder: 0.10,
        jitter: SimTime::from_micros(300),
        ..NetFaultPlan::default()
    };
    let mut link = ReliableLink::new(LossyChannel::new(NetParams::default(), plan));
    let frames = record_frames(4_096);
    let (warm, measured) = frames.split_at(1_024);

    // Warm-up grows the link's queues and scratch buffers to their working
    // size; the budget is about the steady state.
    let (now, delivered) = link_loop(&mut link, SimTime::ZERO, warm);
    assert_eq!(delivered, warm.len(), "warm-up lost frames");

    let (allocs, (now, delivered)) = allocations(|| link_loop(&mut link, now, measured));
    assert_eq!(delivered, measured.len(), "lossy link lost frames");
    let stats = link.stats();
    assert!(stats.retransmits > 0 && stats.nacks > 0, "the plan exercised recovery: {stats:?}");
    let per_frame = allocs as f64 / measured.len() as f64;
    println!("{allocs} allocations for {} frames: {per_frame:.2} per frame", measured.len());
    assert!(
        per_frame <= ALLOCS_PER_FRAME,
        "{per_frame:.2} allocations per sent frame, budget {ALLOCS_PER_FRAME}"
    );

    // Let every straggling duplicate and retransmission land, then the link
    // is idle: pumping it and waiting for acks allocate nothing.
    let mut now = now + SimTime::from_millis(100);
    link.pump(now);
    assert_eq!(link.in_flight_len(), 0, "stragglers still in flight");
    let (idle, ()) = allocations(|| {
        for _ in 0..1_000 {
            now += SimTime::from_micros(40);
            link.pump(now);
            now = link.ack_arrival(now);
        }
    });
    assert_eq!(idle, 0, "pump and ack_arrival allocated on an idle link");
}
