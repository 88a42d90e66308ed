//! Property-based tests on the VM's core data structures and invariants:
//! heap reachability under GC, monitor state-machine sanity, interpreter
//! arithmetic against a Rust oracle, and verifier acceptance of generated
//! structured programs.

use ftjvm_netsim::SimTime;
use ftjvm_vm::class::builtin;
use ftjvm_vm::env::{SimEnv, World};
use ftjvm_vm::exec::{Vm, VmConfig};
use ftjvm_vm::heap::{Heap, HeapEntry};
use ftjvm_vm::monitor::{Monitor, MonitorTable, Waiter};
use ftjvm_vm::native::NativeRegistry;
use ftjvm_vm::program::ProgramBuilder;
use ftjvm_vm::{Cmp, NoopCoordinator, ObjRef, ThreadIdx, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

// ===== heap / GC =====

/// A random object graph: `n` objects, each with up to 3 reference fields
/// pointing at arbitrary earlier-or-later objects, plus a root set.
#[derive(Debug, Clone)]
struct GraphSpec {
    n: usize,
    edges: Vec<(usize, usize)>, // (from, to)
    roots: Vec<usize>,
}

fn graph_strategy() -> impl Strategy<Value = GraphSpec> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..n * 2);
        let roots = proptest::collection::vec(0..n, 0..5);
        (Just(n), edges, roots).prop_map(|(n, edges, roots)| GraphSpec { n, edges, roots })
    })
}

fn reachable(spec: &GraphSpec) -> HashSet<usize> {
    let mut seen: HashSet<usize> = HashSet::new();
    let mut stack: Vec<usize> = spec.roots.clone();
    while let Some(x) = stack.pop() {
        if seen.insert(x) {
            for (f, t) in &spec.edges {
                if *f == x && !seen.contains(t) {
                    stack.push(*t);
                }
            }
        }
    }
    seen
}

proptest! {
    /// Mark-sweep preserves exactly the reachable set: reachable objects
    /// survive with fields intact; unreachable objects are freed.
    #[test]
    fn gc_preserves_exactly_the_reachable_set(spec in graph_strategy()) {
        let classes = {
            let mut b = ProgramBuilder::new();
            let mut m = b.method("main", 1);
            m.ret_void();
            let e = m.build(&mut b);
            b.build(e).unwrap().classes
        };
        let mut heap = Heap::new(10_000, 1_000_000);
        let objs: Vec<ObjRef> =
            (0..spec.n).map(|_| heap.alloc_obj(builtin::OBJECT, 4).unwrap()).collect();
        // Install edges (field slot rotates 0..3).
        let mut slot_of = vec![0usize; spec.n];
        for (f, t) in &spec.edges {
            if slot_of[*f] < 4 {
                if let Some(HeapEntry::Obj { fields, .. }) = heap.get_mut(objs[*f]) {
                    fields[slot_of[*f]] = Value::Ref(objs[*t]);
                }
                slot_of[*f] += 1;
            }
        }
        // Only edges that actually fit in the 4 slots count.
        let mut installed = Vec::new();
        let mut counts = vec![0usize; spec.n];
        for (f, t) in &spec.edges {
            if counts[*f] < 4 {
                installed.push((*f, *t));
                counts[*f] += 1;
            }
        }
        let spec2 = GraphSpec { n: spec.n, edges: installed, roots: spec.roots.clone() };
        let expect = reachable(&spec2);
        let result = heap.collect(spec.roots.iter().map(|r| objs[*r]), &classes, false);
        prop_assert_eq!(result.live, expect.len());
        #[allow(clippy::needless_range_loop)]
        for i in 0..spec.n {
            prop_assert_eq!(heap.get(objs[i]).is_some(), expect.contains(&i), "object {}", i);
        }
        // Survivors' reference fields still point at live objects.
        for i in &expect {
            if let Some(HeapEntry::Obj { fields, .. }) = heap.get(objs[*i]) {
                for v in fields {
                    if let Value::Ref(r) = v {
                        prop_assert!(heap.get(*r).is_some(), "dangling field after GC");
                    }
                }
            }
        }
    }

    /// Slot reuse never resurrects old contents: allocate, free, reallocate
    /// — the new object is always null-initialized.
    #[test]
    fn freed_slots_are_reinitialized(rounds in 1usize..10, size in 1usize..8) {
        let classes = {
            let mut b = ProgramBuilder::new();
            let mut m = b.method("main", 1);
            m.ret_void();
            let e = m.build(&mut b);
            b.build(e).unwrap().classes
        };
        let mut heap = Heap::new(100, 1_000_000);
        for round in 0..rounds {
            let o = heap.alloc_obj(builtin::OBJECT, size as u16).unwrap();
            if let Some(HeapEntry::Obj { fields, .. }) = heap.get_mut(o) {
                for f in fields.iter_mut() {
                    *f = Value::Int(round as i64 + 100);
                }
            }
            heap.collect([], &classes, false); // o is unrooted: freed
            let o2 = heap.alloc_obj(builtin::OBJECT, size as u16).unwrap();
            if let Some(HeapEntry::Obj { fields, .. }) = heap.get(o2) {
                for f in fields {
                    prop_assert_eq!(*f, Value::Null);
                }
            }
        }
    }
}

// ===== monitors =====

#[derive(Debug, Clone, Copy)]
enum MonOp {
    Enter(u32),
    Exit(u32),
}

fn mon_ops() -> impl Strategy<Value = Vec<MonOp>> {
    proptest::collection::vec(
        prop_oneof![(0u32..4).prop_map(MonOp::Enter), (0u32..4).prop_map(MonOp::Exit)],
        0..200,
    )
}

proptest! {
    /// The monitor state machine against a reference model: ownership,
    /// recursion depth, and error cases all match.
    #[test]
    fn monitor_matches_reference_model(ops in mon_ops()) {
        let mut m = Monitor::default();
        let mut owner: Option<u32> = None;
        let mut depth: u32 = 0;
        for op in ops {
            match op {
                MonOp::Enter(t) => {
                    match owner {
                        None => {
                            prop_assert_eq!(
                                m.try_enter(ThreadIdx(t)),
                                ftjvm_vm::monitor::EnterResult::Acquired { recursive: false }
                            );
                            owner = Some(t);
                            depth = 1;
                        }
                        Some(o) if o == t => {
                            prop_assert_eq!(
                                m.try_enter(ThreadIdx(t)),
                                ftjvm_vm::monitor::EnterResult::Acquired { recursive: true }
                            );
                            depth += 1;
                        }
                        Some(o) => {
                            prop_assert_eq!(
                                m.try_enter(ThreadIdx(t)),
                                ftjvm_vm::monitor::EnterResult::Contended { owner: ThreadIdx(o) }
                            );
                        }
                    }
                }
                MonOp::Exit(t) => {
                    if owner == Some(t) {
                        let freed = m.exit(ThreadIdx(t)).unwrap();
                        depth -= 1;
                        prop_assert_eq!(freed, depth == 0);
                        if depth == 0 {
                            owner = None;
                        }
                    } else {
                        prop_assert!(m.exit(ThreadIdx(t)).is_err());
                    }
                }
            }
            prop_assert_eq!(m.owner, owner.map(ThreadIdx));
            prop_assert_eq!(m.recursion, depth);
        }
    }
}

// ===== monitor table vs a map model =====

/// Objects the table ops address: dense low slots plus a sparse tail, so
/// the table grows past slots it never used.
const TABLE_OBJS: [usize; 10] = [0, 1, 2, 3, 5, 8, 13, 64, 130, 999];

#[derive(Debug, Clone, Copy)]
enum TableOp {
    /// `monitor_mut`, no edit: creates the entry.
    Touch(usize),
    /// Sets (or clears) the owner, as an enter or a full release would.
    Own(usize, Option<u32>),
    /// Bumps `l_asn`, as an application acquisition does.
    Asn(usize),
    /// Assigns the virtual lock id.
    Id(usize, u64),
    /// Parks a waiter in the wait set.
    Wait(usize, u32),
    /// Wakes the oldest waiter.
    Notify(usize),
    /// A read-only lookup.
    Read(usize),
    /// Collection: objects whose bit in the mask is set are live.
    Retain(u64),
}

fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
    let obj = 0usize..TABLE_OBJS.len();
    proptest::collection::vec(
        prop_oneof![
            obj.clone().prop_map(TableOp::Touch),
            (obj.clone(), proptest::option::of(0u32..3)).prop_map(|(o, t)| TableOp::Own(o, t)),
            obj.clone().prop_map(TableOp::Asn),
            (obj.clone(), 0u64..50).prop_map(|(o, id)| TableOp::Id(o, id)),
            (obj.clone(), 0u32..3).prop_map(|(o, t)| TableOp::Wait(o, t)),
            obj.clone().prop_map(TableOp::Notify),
            obj.prop_map(TableOp::Read),
            any::<u64>().prop_map(TableOp::Retain),
        ],
        0..120,
    )
}

/// Everything observable about one monitor.
fn mon_view(m: &Monitor) -> (Option<ThreadIdx>, u32, Vec<Waiter>, u64, Option<u64>) {
    (m.owner, m.recursion, m.wait_set.iter().copied().collect(), m.l_asn, m.l_id)
}

/// Today's rule for what a collection keeps: a live object's monitor, or
/// any monitor still owned, contended or waited on.
fn kept(obj: ObjRef, m: &Monitor, mask: u64) -> bool {
    mask >> (obj.index() % 64) & 1 == 1
        || m.owner.is_some()
        || !m.entry_queue.is_empty()
        || !m.wait_set.is_empty()
}

proptest! {
    /// The monitor table against a `BTreeMap<ObjRef, Monitor>` model: the
    /// first `monitor_mut` creates an entry, a read creates none, a
    /// collection drops exactly the idle monitors of dead objects, and
    /// iteration runs in object order.
    #[test]
    fn monitor_table_matches_map_model(ops in table_ops()) {
        let mut table = MonitorTable::new();
        let mut model: BTreeMap<ObjRef, Monitor> = BTreeMap::new();
        for op in ops {
            match op {
                TableOp::Touch(o) => {
                    let obj = ObjRef::from_index(TABLE_OBJS[o]);
                    table.monitor_mut(obj);
                    model.entry(obj).or_default();
                }
                TableOp::Own(o, t) => {
                    let obj = ObjRef::from_index(TABLE_OBJS[o]);
                    for m in [table.monitor_mut(obj), model.entry(obj).or_default()] {
                        m.owner = t.map(ThreadIdx);
                        m.recursion = u32::from(t.is_some());
                    }
                }
                TableOp::Asn(o) => {
                    let obj = ObjRef::from_index(TABLE_OBJS[o]);
                    table.monitor_mut(obj).l_asn += 1;
                    model.entry(obj).or_default().l_asn += 1;
                }
                TableOp::Id(o, id) => {
                    let obj = ObjRef::from_index(TABLE_OBJS[o]);
                    table.monitor_mut(obj).l_id = Some(id);
                    model.entry(obj).or_default().l_id = Some(id);
                }
                TableOp::Wait(o, t) => {
                    let obj = ObjRef::from_index(TABLE_OBJS[o]);
                    let w = Waiter { thread: ThreadIdx(t), saved_recursion: 1 };
                    table.monitor_mut(obj).wait_set.push_back(w);
                    model.entry(obj).or_default().wait_set.push_back(w);
                }
                TableOp::Notify(o) => {
                    let obj = ObjRef::from_index(TABLE_OBJS[o]);
                    table.monitor_mut(obj).wait_set.pop_front();
                    model.entry(obj).or_default().wait_set.pop_front();
                }
                TableOp::Read(o) => {
                    let obj = ObjRef::from_index(TABLE_OBJS[o]);
                    prop_assert_eq!(table.monitor(obj).map(mon_view), model.get(&obj).map(mon_view));
                }
                TableOp::Retain(mask) => {
                    table.retain_live(|r| mask >> (r.index() % 64) & 1 == 1);
                    model.retain(|obj, m| kept(*obj, m, mask));
                }
            }
            let got: Vec<_> = table.iter().map(|(obj, m)| (obj, mon_view(m))).collect();
            let want: Vec<_> = model.iter().map(|(obj, m)| (*obj, mon_view(m))).collect();
            prop_assert_eq!(got, want);
            for &i in &TABLE_OBJS {
                let obj = ObjRef::from_index(i);
                prop_assert_eq!(table.monitor(obj).map(mon_view), model.get(&obj).map(mon_view));
            }
            let mut active: Vec<ObjRef> = table.active_objects().collect();
            active.sort_unstable();
            let want_active: Vec<ObjRef> =
                model.iter().filter(|(obj, m)| kept(**obj, m, 0)).map(|(obj, _)| *obj).collect();
            prop_assert_eq!(active, want_active);
            let locked = model.values().filter(|m| m.l_asn > 0 || m.owner.is_some()).count();
            prop_assert_eq!(table.objects_locked(), locked);
            prop_assert_eq!(table.max_lock_id(), model.values().filter_map(|m| m.l_id).max());
        }
    }
}

// ===== interpreter arithmetic vs oracle =====

#[derive(Debug, Clone, Copy)]
enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

fn apply(op: ArithOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        ArithOp::Add => a.wrapping_add(b),
        ArithOp::Sub => a.wrapping_sub(b),
        ArithOp::Mul => a.wrapping_mul(b),
        ArithOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        ArithOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        ArithOp::And => a & b,
        ArithOp::Or => a | b,
        ArithOp::Xor => a ^ b,
        ArithOp::Shl => a.wrapping_shl(b as u32 & 63),
        ArithOp::Shr => a.wrapping_shr(b as u32 & 63),
    })
}

fn arith_strategy() -> impl Strategy<Value = (Vec<(ArithOp, i64)>, i64)> {
    let op = prop_oneof![
        Just(ArithOp::Add),
        Just(ArithOp::Sub),
        Just(ArithOp::Mul),
        Just(ArithOp::Div),
        Just(ArithOp::Rem),
        Just(ArithOp::And),
        Just(ArithOp::Or),
        Just(ArithOp::Xor),
        Just(ArithOp::Shl),
        Just(ArithOp::Shr),
    ];
    (proptest::collection::vec((op, any::<i64>()), 1..24), any::<i64>())
}

proptest! {
    /// A chain of arithmetic ops computed by the interpreter equals the
    /// Rust oracle (Java wrapping semantics), including division-by-zero
    /// exception behavior.
    #[test]
    fn interpreter_arithmetic_matches_oracle((ops, start) in arith_strategy()) {
        let mut expected = Some(start);
        for (op, v) in &ops {
            expected = expected.and_then(|acc| apply(*op, acc, *v));
        }
        let mut b = ProgramBuilder::new();
        let print = b.import_native("sys.print_int", 1, false);
        let mut m = b.method("main", 1);
        m.push_i(start);
        for (op, v) in &ops {
            m.push_i(*v);
            match op {
                ArithOp::Add => m.add(),
                ArithOp::Sub => m.sub(),
                ArithOp::Mul => m.mul(),
                ArithOp::Div => m.div(),
                ArithOp::Rem => m.rem(),
                ArithOp::And => m.band(),
                ArithOp::Or => m.bor(),
                ArithOp::Xor => m.bxor(),
                ArithOp::Shl => m.shl(),
                ArithOp::Shr => m.shr(),
            };
        }
        m.invoke_native(print, 1).ret_void();
        let entry = m.build(&mut b);
        let program = std::sync::Arc::new(b.build(entry).unwrap());
        let world = World::shared();
        let env = SimEnv::new("p", world.clone(), SimTime::ZERO, 1);
        let mut vm = Vm::new(program, NativeRegistry::with_builtins(), env, VmConfig::default()).unwrap();
        let report = vm.run(&mut NoopCoordinator::new()).unwrap();
        match expected {
            Some(v) => {
                prop_assert!(report.uncaught.is_empty());
                let console = world.borrow().console_texts();
                prop_assert_eq!(console, vec![v.to_string()]);
            }
            None => {
                // Division by zero: uncaught ArithmeticException.
                prop_assert_eq!(report.uncaught.len(), 1);
                prop_assert_eq!(report.uncaught[0].1, ftjvm_vm::class::excode::ARITHMETIC);
            }
        }
    }

    /// Structured random programs (nested counted loops with accumulator
    /// updates) always verify and compute what the oracle computes.
    #[test]
    fn structured_loops_match_oracle(
        loops in proptest::collection::vec((1i64..6, 1i64..20, -50i64..50), 1..4)
    ) {
        // Oracle: acc starts 0; for each (depth-level) loop: run `reps`
        // times adding `delta` each time; loops nest multiplicatively.
        let mut expected: i64 = 0;
        let mut mult: i64 = 1;
        for (_, reps, delta) in &loops {
            mult *= reps;
            expected += mult * delta;
        }
        // Program: nested loops; innermost adds delta of each level — but
        // build equivalently: sum over levels of (product of reps up to
        // level) * delta. Emit one loop nest per level.
        let mut b = ProgramBuilder::new();
        let print = b.import_native("sys.print_int", 1, false);
        let mut m = b.method("main", 1);
        m.push_i(0).store(1); // acc
        let emit_nest = |m: &mut ftjvm_vm::program::MethodBuilder, level: usize| {
            // nested loops 0..=level, innermost adds loops[level].2
            fn nest(
                m: &mut ftjvm_vm::program::MethodBuilder,
                loops: &[(i64, i64, i64)],
                level: usize,
                depth: usize,
                delta: i64,
            ) {
                let local = (2 + depth) as u16;
                let done = m.new_label();
                m.push_i(loops[depth].1).store(local);
                let top = m.bind_new_label();
                m.load(local).if_not(done);
                if depth == level {
                    m.load(1).push_i(delta).add().store(1);
                } else {
                    nest(m, loops, level, depth + 1, delta);
                }
                m.inc(local, -1).goto(top);
                m.bind(done);
            }
            nest(m, &loops, level, 0, loops[level].2);
        };
        for level in 0..loops.len() {
            emit_nest(&mut m, level);
        }
        m.load(1).invoke_native(print, 1).ret_void();
        let entry = m.build(&mut b);
        let program = std::sync::Arc::new(b.build(entry).unwrap());
        let world = World::shared();
        let env = SimEnv::new("p", world.clone(), SimTime::ZERO, 1);
        let mut vm = Vm::new(program, NativeRegistry::with_builtins(), env, VmConfig::default()).unwrap();
        let report = vm.run(&mut NoopCoordinator::new()).unwrap();
        prop_assert!(report.uncaught.is_empty());
        let console = world.borrow().console_texts();
        prop_assert_eq!(console, vec![expected.to_string()]);
    }

    /// Same-seed determinism holds for any seed: two identical VMs produce
    /// identical counters and timing.
    #[test]
    fn any_seed_is_deterministic(seed in any::<u64>()) {
        let program = {
            let mut b = ProgramBuilder::new();
            let print = b.import_native("sys.print_int", 1, false);
            let spawn = b.import_native("sys.spawn", 2, false);
            let yield_n = b.import_native("sys.yield", 0, false);
            let cls = b.add_class("D", builtin::OBJECT, 0, 2);
            let mut inc = b.method("inc", 1);
            inc.static_of(cls).synchronized();
            inc.get_static(cls, 0).push_i(1).add().put_static(cls, 0).ret_void();
            let inc = inc.build(&mut b);
            let mut fin = b.method("fin", 1);
            fin.static_of(cls).synchronized();
            fin.get_static(cls, 1).push_i(1).add().put_static(cls, 1).ret_void();
            let fin = fin.build(&mut b);
            let mut w = b.method("w", 1);
            let done = w.new_label();
            w.push_i(25).store(1);
            let top = w.bind_new_label();
            w.load(1).if_not(done);
            w.push_i(0).invoke(inc);
            w.inc(1, -1).goto(top);
            w.bind(done).push_i(0).invoke(fin).ret_void();
            let w = w.build(&mut b);
            let mut m = b.method("main", 1);
            m.push_i(0).put_static(cls, 0);
            m.push_i(0).put_static(cls, 1);
            m.push_method(w).push_i(0).invoke_native(spawn, 2);
            m.push_method(w).push_i(0).invoke_native(spawn, 2);
            let wait = m.bind_new_label();
            let ready = m.new_label();
            m.get_static(cls, 1).push_i(2).icmp(Cmp::Eq).if_true(ready);
            m.invoke_native(yield_n, 0).goto(wait);
            m.bind(ready);
            m.get_static(cls, 0).invoke_native(print, 1).ret_void();
            let e = m.build(&mut b);
            std::sync::Arc::new(b.build(e).unwrap())
        };
        let run = |seed: u64| {
            let world = World::shared();
            let env = SimEnv::new("p", world.clone(), SimTime::ZERO, 9);
            let cfg = VmConfig { sched_seed: seed, quantum: 17, quantum_jitter: 13, ..VmConfig::default() };
            let mut vm = Vm::new(program.clone(), NativeRegistry::with_builtins(), env, cfg).unwrap();
            let r = vm.run(&mut NoopCoordinator::new()).unwrap();
            let texts = world.borrow().console_texts();
            (r.counters, r.acct.total(), texts)
        };
        let a = run(seed);
        let b2 = run(seed);
        prop_assert_eq!(a.0, b2.0);
        prop_assert_eq!(a.1, b2.1);
        prop_assert_eq!(a.2.clone(), b2.2);
        prop_assert_eq!(a.2, vec!["50".to_string()]);
    }
}
