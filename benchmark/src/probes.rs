//! Layer probes: micro loops that time one layer's public functions from
//! outside, over the real record stream of `db` and `jack`. They run in
//! traced runs only, are the same on every workload, and feed per-layer
//! metrics, never end-to-end ones.

use crate::stats::fast_decile;
use crate::trace::Harness;
use crate::workloads::lossy_plan;
use bytes::Bytes;
use ftjvm_core::codec::{flush_digest, frame_digest};
use ftjvm_core::{
    build_batch_frame, crc32c, open_frame, seal_frame, FtConfig, FtJvm, Record, RecordDecoder,
    RecordEncoder, RecvWindow, ReliableLink,
};
use ftjvm_netsim::{
    LossyChannel, NetFaultPlan, NetParams, SharedBandwidth, SimChannel, SimTime, TrunkWindow,
};
use ftjvm_vm::{NativeRegistry, NoopCoordinator, SimEnv, SliceOutcome, Vm, VmConfig, World};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Records per compact batch frame in the codec probes: what the default
/// 16 KiB flush threshold holds of `db`'s 5-byte compact lock records.
const BATCH: usize = 2048;

/// Frames per acknowledgment round trip in the link probes, and per flush
/// group in the digest probe.
const GROUP: usize = 32;

/// Seconds per repetition of each probe (fast decile), by probe name, plus the
/// counts the probes produce.
#[derive(Debug, Default)]
pub struct Probes {
    secs: BTreeMap<&'static str, f64>,
    /// Records in the probed stream.
    pub records: usize,
    /// Bytes of the stream under the fixed codec.
    pub fixed_bytes: usize,
    /// Bytes of the stream under the compact codec (batch framing included).
    pub compact_bytes: usize,
    /// Frames sent per repetition of the link probes.
    pub link_frames: usize,
    /// Retransmissions of one repetition of the lossy link probe.
    pub retransmits: u64,
    /// Bytes of the probed snapshot.
    pub snapshot_bytes: usize,
    /// Admissions per repetition of the trunk admission probe.
    pub trunk_admits: usize,
    /// Intervals merged per repetition of the trunk merge probe.
    pub trunk_intervals: usize,
    /// Bytes checksummed per repetition of the CRC probe.
    pub crc_bytes: usize,
}

impl Probes {
    /// Seconds of one repetition of probe `name`.
    ///
    /// # Panics
    /// Panics on a name that was never probed.
    pub fn secs(&self, name: &str) -> f64 {
        *self.secs.get(name).unwrap_or_else(|| panic!("probe {name} did not run"))
    }
}

/// Times `reps` repetitions of `f` under one span and keeps the fast decile.
fn probe<R>(
    h: &mut Harness,
    out: &mut Probes,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> R {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    h.time(name, |_| {
        for _ in 0..reps {
            let t = std::time::Instant::now();
            last = Some(black_box(f()));
            secs.push(t.elapsed().as_secs_f64());
        }
    });
    out.secs.insert(name, fast_decile(&secs));
    last.expect("at least one repetition")
}

/// The record stream the codec, link and window probes run over.
fn record_stream(seed: u64) -> Vec<Record> {
    let mut records = Vec::new();
    for w in [ftjvm_workloads::db::workload(), ftjvm_workloads::jack::workload()] {
        let cfg = FtConfig {
            primary_seed: seed,
            primary_env_seed: seed ^ 0xA11CE,
            ..FtConfig::default()
        };
        records.extend(FtJvm::new(w.program, cfg).capture_log().expect("probe stream captures"));
    }
    records
}

fn link_loop(link: &mut ReliableLink, frames: &[Bytes]) -> usize {
    let step = SimTime::from_micros(40);
    let mut now = SimTime::ZERO;
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
    delivered
}

/// Runs every probe, `reps` repetitions each.
pub fn run(h: &mut Harness, seed: u64, reps: usize) -> Probes {
    let mut p = Probes::default();
    h.time("probes", |h| {
        let records = record_stream(seed);
        p.records = records.len();
        codec_probes(h, &mut p, &records, seed, reps);
        snapshot_probes(h, &mut p, seed, reps);
        trunk_probes(h, &mut p, reps);
    });
    p
}

fn codec_probes(h: &mut Harness, p: &mut Probes, records: &[Record], seed: u64, reps: usize) {
    let fixed: Vec<Bytes> =
        probe(h, p, "codec.encode_fixed", reps, || records.iter().map(Record::encode).collect());
    p.fixed_bytes = fixed.iter().map(Bytes::len).sum();

    let compact: Vec<Bytes> = probe(h, p, "codec.encode_compact", reps, || {
        let mut enc = RecordEncoder::new();
        records
            .chunks(BATCH)
            .map(|chunk| {
                let bodies: Vec<Bytes> = chunk.iter().map(|r| enc.encode_body(r)).collect();
                build_batch_frame(&bodies)
            })
            .collect()
    });
    p.compact_bytes = compact.iter().map(Bytes::len).sum();

    for (name, frames) in [("codec.decode_fixed", &fixed), ("codec.decode_compact", &compact)] {
        let decoded = probe(h, p, name, reps, || {
            let mut dec = RecordDecoder::new();
            let mut out = Vec::with_capacity(records.len());
            for f in frames {
                dec.decode_frame(f.clone(), &mut out).expect("probe frame decodes");
            }
            out.len()
        });
        assert_eq!(decoded, records.len(), "{name} lost records");
    }

    let sealed: Vec<Bytes> = probe(h, p, "codec.seal", reps, || {
        fixed.iter().enumerate().map(|(seq, f)| seal_frame(seq as u64, f)).collect()
    });
    let opened = probe(h, p, "codec.open", reps, || {
        sealed.iter().map(|s| open_frame(s).expect("sealed frame opens").1.len()).sum::<usize>()
    });
    assert_eq!(opened, p.fixed_bytes, "open_frame returned other payloads");

    let blob: Vec<u8> = fixed.iter().flat_map(|f| f.iter().copied()).collect();
    p.crc_bytes = blob.len();
    probe(h, p, "codec.crc32c", reps, || crc32c(&blob));

    probe(h, p, "codec.flush_digest", reps, || {
        fixed
            .chunks(GROUP)
            .map(|g| flush_digest(&g.iter().map(|f| frame_digest(f)).collect::<Vec<u32>>()))
            .fold(0u32, |a, d| a ^ d)
    });

    let received = probe(h, p, "backup.recvwindow", reps, || {
        let mut win = RecvWindow::new();
        let mut ctrl = Vec::new();
        let mut got = 0;
        for (i, s) in sealed.iter().enumerate() {
            win.offer(SimTime::from_nanos(i as u64), s.clone(), &mut ctrl);
            if i % GROUP == GROUP - 1 {
                got += win.take_ready().len();
                ctrl.clear();
            }
        }
        got + win.take_ready().len()
    });
    assert_eq!(received, sealed.len(), "receive window lost frames");

    // The link and channel probes send every fourth frame: the lossy
    // link's retransmission timers make it the slowest probe per frame.
    let some: Vec<Bytes> = fixed.iter().step_by(4).cloned().collect();
    p.link_frames = some.len();
    let params = NetParams::default();
    let delivered = probe(h, p, "primary.link_clean", reps, || {
        let mut link =
            ReliableLink::new(LossyChannel::new(params.clone(), NetFaultPlan::default()));
        link_loop(&mut link, &some)
    });
    assert_eq!(delivered, some.len(), "clean link lost frames");
    let heavy = lossy_plan(seed, 0.20);
    let (delivered, retransmits) = probe(h, p, "primary.link_lossy", reps, || {
        let mut link = ReliableLink::new(LossyChannel::new(params.clone(), heavy.clone()));
        (link_loop(&mut link, &some), link.stats().retransmits)
    });
    assert_eq!(delivered, some.len(), "lossy link lost frames");
    p.retransmits = retransmits;

    probe(h, p, "netsim.channel", reps, || {
        let mut ch = SimChannel::new(params.clone());
        let mut now = SimTime::ZERO;
        let mut got = 0;
        for group in some.chunks(GROUP) {
            for f in group {
                now += SimTime::from_micros(40);
                ch.send(now, f.clone());
            }
            now = ch.ack_arrival(now);
            got += ch.recv_ready(now).len();
        }
        got
    });
    let light = lossy_plan(seed, 0.10);
    probe(h, p, "netsim.lossy", reps, || {
        let mut ch = LossyChannel::new(params.clone(), light.clone());
        let mut now = SimTime::ZERO;
        let mut got = 0;
        for group in some.chunks(GROUP) {
            for f in group {
                now += SimTime::from_micros(40);
                ch.send(now, f.clone());
            }
            got += ch.recv_ready(now).len();
        }
        got + ch.drain().len()
    });
}

fn snapshot_probes(h: &mut Harness, p: &mut Probes, seed: u64, reps: usize) {
    // A journal VM stopped mid-run at a quiescent point: what an epoch
    // cut snapshots and a re-homing standby restores.
    let program = ftjvm_workloads::micro::file_journal(1000).program;
    let natives = NativeRegistry::with_builtins();
    let cfg = VmConfig { sched_seed: seed, ..VmConfig::default() };
    let world = World::shared();
    let env = SimEnv::new("probe", world.clone(), SimTime::ZERO, seed);
    let mut vm =
        Vm::new(program.clone(), natives.clone(), env, cfg.clone()).expect("journal loads");
    let mut coord = NoopCoordinator::new();
    let mut units = 0;
    while units < 4_000 || !vm.quiescent() {
        match vm.run_slice(&mut coord, 7).expect("journal slice runs") {
            SliceOutcome::Budget | SliceOutcome::Paused => units += 7,
            _ => panic!("journal finished before the probe's snapshot point"),
        }
    }
    // One repetition is many snapshots: a single one is microseconds.
    const PER_REP: usize = 200;
    let blob = probe(h, p, "vm.snapshot_take", reps, || {
        let mut last = Bytes::new();
        for _ in 0..PER_REP {
            last = vm.snapshot(&[]).expect("quiescent VM snapshots");
        }
        last
    });
    p.snapshot_bytes = blob.len();
    probe(h, p, "vm.snapshot_restore", reps, || {
        for _ in 0..PER_REP {
            let restored =
                Vm::restore(program.clone(), natives.clone(), world.clone(), &cfg, &blob);
            black_box(restored.expect("own snapshot restores"));
        }
    });
    // Both probes report per-snapshot time.
    for name in ["vm.snapshot_take", "vm.snapshot_restore"] {
        if let Some(s) = p.secs.get_mut(name) {
            *s /= PER_REP as f64;
        }
    }
}

fn trunk_probes(h: &mut Harness, p: &mut Probes, reps: usize) {
    let per_byte = SimTime::from_nanos(20);
    // 64 ports each admitting 64 frames of 600 bytes, 3 us apart on a
    // trunk that serializes one frame in 12 us: a busy calendar, as on
    // the fleet's trunk.
    const PORTS: u64 = 64;
    const FRAMES: u64 = 64;
    p.trunk_admits = (PORTS * FRAMES) as usize;
    probe(h, p, "netsim.trunk_admit", reps, || {
        let mut trunk = SharedBandwidth::new(per_byte);
        let mut delay = SimTime::ZERO;
        for k in 0..FRAMES {
            for port in 0..PORTS {
                delay += trunk.admit(SimTime::from_nanos((k * PORTS + port) * 3_000), 600);
            }
        }
        delay
    });
    // The windowed scheduler's barrier: every port re-grounded on the
    // frozen master calendar and admitted its window's frames; the
    // master merges the finished windows in port order and prunes. The
    // windows are made once, outside the timed loop: only merging is
    // measured.
    let mut master = SharedBandwidth::new(per_byte);
    let mut ports: Vec<SharedBandwidth> =
        (0..PORTS).map(|_| SharedBandwidth::new(per_byte)).collect();
    let mut batches = Vec::new();
    for window in 0..FRAMES / 8 {
        let frozen = master.calendar().clone();
        let windows: Vec<TrunkWindow> = ports
            .iter_mut()
            .enumerate()
            .map(|(i, port)| {
                port.sync_window(&frozen);
                for k in 0..8 {
                    let at = window * 500_000 + k * 60_000 + i as u64 * 900;
                    port.admit(SimTime::from_nanos(at), 600);
                }
                port.take_window()
            })
            .collect();
        for w in &windows {
            master.merge_window(w);
        }
        batches.push(windows);
    }
    p.trunk_intervals = batches.iter().flatten().map(|w| w.intervals.len()).sum();
    probe(h, p, "netsim.trunk_merge", reps, || {
        let mut master = SharedBandwidth::new(per_byte);
        for (window, windows) in batches.iter().enumerate() {
            for w in windows {
                master.merge_window(w);
            }
            master.prune_before(SimTime::from_nanos(window as u64 * 500_000));
        }
        master.stats().frames
    });
}
