//! Heap-allocation budgets, one row per layer, each driven alone through
//! the public API.
//!
//! A counting global allocator wraps the system one and counts every
//! `alloc`, `alloc_zeroed` and `realloc` made on a thread that switched
//! counting on. The count is per thread, so the rows can run as parallel
//! tests without seeing each other's allocations.
//!
//! - The reliable link's per-frame path, driven the way the benchmark's
//!   link probe does: groups of 32 record frames 40 us apart, a `pump`
//!   after every send, then the pessimistic ack wait and the verified
//!   delivery. The link is the benchmark's `lossy_group` link at 20% loss
//!   (5% duplication, 2% corruption, 10% reordering, 300 us jitter).
//! - The interpreter's synchronized call, unreplicated: `db`'s two lock
//!   shapes in a loop under [`NoopCoordinator`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use ftjvm_core::{Record, ReliableLink};
use ftjvm_netsim::{LossyChannel, NetFaultPlan, NetParams, SimTime};
use ftjvm_vm::class::builtin;
use ftjvm_vm::env::{SimEnv, World};
use ftjvm_vm::exec::{SliceOutcome, Vm, VmConfig};
use ftjvm_vm::native::NativeRegistry;
use ftjvm_vm::program::ProgramBuilder;
use ftjvm_vm::{NoopCoordinator, Program, VtPath};
use std::sync::Arc;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|a| a.set(a.get() + 1));
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
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get) - before, r)
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

/// `db`'s two synchronized shapes, called in turn `n` times: a static
/// method locked on its class object (`Database.lookup`) and a virtual one
/// locked on its receiver (`Record.touch`). The loop allocates nothing
/// itself, so every allocation counted is the call path's.
fn synchronized_calls(n: i64) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let record = b.add_class("Record", builtin::OBJECT, 1, 0);
    let touch_slot = b.declare_vslot("touch", 2, true);
    let mut touch = b.method("Record.touch", 2);
    touch.instance_of(record).synchronized();
    touch.load(0).load(0).get_field(0).load(1).add().put_field(0);
    touch.load(0).get_field(0).ret_val();
    let touch = touch.build(&mut b);
    b.set_vtable(record, touch_slot, touch);
    let db = b.add_class("Database", builtin::OBJECT, 0, 1);
    let mut lookup = b.method("Database.lookup", 1);
    lookup.static_of(db).synchronized();
    lookup.get_static(db, 0).get_field(0).load(0).add().ret_val();
    let lookup = lookup.build(&mut b);
    let mut m = b.method("main", 1);
    m.new_obj(record).dup().push_i(0).put_field(0).put_static(db, 0);
    m.push_i(n).store(1);
    let done = m.new_label();
    let top = m.bind_new_label();
    m.load(1).if_not(done);
    m.get_static(db, 0).load(1).invoke_virtual(touch_slot, 2).pop();
    m.load(1).invoke(lookup).pop();
    m.inc(1, -1).goto(top);
    m.bind(done).ret_void();
    let entry = m.build(&mut b);
    Arc::new(b.build(entry).expect("program verifies"))
}

/// Before popped frames lent their buffers to the next call, the same loop
/// made 2.00 allocations per synchronized call: the callee's locals and
/// its operand stack.
#[test]
fn synchronized_call_allocates_nothing() {
    // One quantum outlasts both slices: a context switch is the
    // scheduler's cost, not the call path's.
    let cfg = VmConfig { quantum: u32::MAX / 2, quantum_jitter: 0, ..VmConfig::default() };
    let env = SimEnv::new("solo", World::shared(), SimTime::ZERO, 7);
    let mut vm = Vm::new(synchronized_calls(1 << 40), NativeRegistry::with_builtins(), env, cfg)
        .expect("vm builds");
    let mut coord = NoopCoordinator::new();

    // Warm-up grows the thread's frame stack and the monitor table.
    let warm = vm.run_slice(&mut coord, 50_000).expect("warm-up runs");
    assert!(matches!(warm, SliceOutcome::Budget), "warm-up ended early");

    let calls_before = vm.core().counters.monitor_acquires;
    let (allocs, slice) = allocations(|| vm.run_slice(&mut coord, 200_000));
    assert!(matches!(slice, Ok(SliceOutcome::Budget)), "measured slice ended early");
    let calls = vm.core().counters.monitor_acquires - calls_before;
    assert!(calls > 10_000, "only {calls} synchronized calls measured");
    let per_call = allocs as f64 / calls as f64;
    println!("{allocs} allocations for {calls} synchronized calls: {per_call:.2} per call");
    assert_eq!(allocs, 0, "{per_call:.2} allocations per synchronized call");
}
