//! Corrupt-frame decoder fuzzer (CI smoke): hammer the reliability
//! sublayer's `open_frame` and the record decoders with mutated and
//! random frames. Every input must come back as a clean `Ok`/`Err` —
//! a panic anywhere aborts the process nonzero and fails the build. A
//! sealed frame whose only change is a swap between the flush-ending and
//! flush-continuing seal tags must never open: that would move a flush
//! boundary.
//!
//! ```text
//! cargo run --release --bin ftjvm-fuzz-frames -- [iterations] [seed]
//! ```
//!
//! Mutations are seeded and deterministic (splitmix64), so a failing
//! iteration is reproducible from the printed seed.

use ftjvm::replication::codec::{
    build_batch_frame, build_vote_frame, flush_digest, frame_digest, open_frame, parse_vote_frame,
    seal, RecordDecoder, RecordEncoder, SEAL_MORE_TAG, SEAL_TAG,
};
use ftjvm::replication::records::{LoggedResult, Record, WireValue};
use ftjvm::vm::vtid::VtPath;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// A small corpus of well-formed frames: fixed-encoded records, a
/// compact batch frame, and sealed wrappings of both, each sealed once as
/// ending a flush and once as continuing one.
fn corpus() -> Vec<Vec<u8>> {
    let records = vec![
        Record::IdMap { l_id: 7, t: VtPath::root(), t_asn: 1 },
        Record::LockAcq { t: VtPath::root(), t_asn: 2, l_id: 7, l_asn: 1 },
        Record::Sched {
            t: VtPath::root(),
            br_cnt: 41,
            method: 2,
            pc_off: 3,
            mon_cnt: 1,
            l_asn: 0,
            in_native: false,
            next: VtPath::root(),
        },
        Record::NativeResult {
            t: VtPath::root(),
            seq: 5,
            sig_hash: 0xfeed_beef,
            result: LoggedResult::Ok(Some(WireValue::Int(42))),
            out_args: vec![(0, vec![WireValue::Int(-1), WireValue::Null])],
        },
        Record::OutputCommit { t: VtPath::root(), seq: 6, output_id: 9 },
        Record::SeState { handler: 2, payload: vec![1, 2, 3].into() },
    ];
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for r in &records {
        frames.push(r.encode().to_vec());
    }
    let mut enc = RecordEncoder::new();
    let bodies: Vec<bytes::Bytes> = records.iter().map(|r| enc.encode_body(r)).collect();
    frames.push(build_batch_frame(&bodies).to_vec());
    // Digest-vote frames: one per corpus record (claiming its honest
    // digest) plus a whole-flush vote over the combined claim set.
    let claims: Vec<u32> = frames.iter().map(|f| frame_digest(f)).collect();
    let mut votes: Vec<Vec<u8>> =
        claims.iter().enumerate().map(|(i, &d)| build_vote_frame(i as u64, d).to_vec()).collect();
    votes.push(build_vote_frame(u64::MAX, flush_digest(&claims)).to_vec());
    frames.extend(votes);
    let sealed: Vec<Vec<u8>> = [false, true]
        .into_iter()
        .flat_map(|more| frames.iter().enumerate().map(move |(i, f)| seal(i as u64, f, more)))
        .map(|f| f.to_vec())
        .collect();
    frames.extend(sealed);
    frames
}

/// One mutation: bit flips, truncation, extension, splice, pure noise,
/// a forged vote (a valid vote header over mutated index/digest payload
/// bytes — the shape a byzantine sender would emit), or a seal-tag swap
/// (returned with `true`: the flush-ending and flush-continuing tags
/// traded, nothing else changed).
fn mutate(rng: &mut Rng, base: &[u8]) -> (Vec<u8>, bool) {
    let mut v = base.to_vec();
    match rng.next() % 7 {
        0 => {
            for _ in 0..=rng.below(4) {
                if v.is_empty() {
                    break;
                }
                let i = rng.below(v.len());
                v[i] ^= (rng.next() as u8).max(1);
            }
        }
        1 => {
            v.truncate(rng.below(v.len() + 1));
        }
        2 => {
            for _ in 0..=rng.below(8) {
                v.push(rng.next() as u8);
            }
        }
        3 => {
            let n = rng.below(24) + 1;
            v = (0..n).map(|_| rng.next() as u8).collect();
        }
        4 => {
            let cut = rng.below(v.len() + 1);
            v.truncate(cut);
            for _ in 0..rng.below(12) {
                v.push(rng.next() as u8);
            }
        }
        5 => match v.first_mut() {
            Some(tag) if *tag == SEAL_TAG || *tag == SEAL_MORE_TAG => {
                *tag = if *tag == SEAL_TAG { SEAL_MORE_TAG } else { SEAL_TAG };
                return (v, true);
            }
            // Not a sealed frame: plant a seal tag over whatever is there.
            Some(tag) => *tag = [SEAL_TAG, SEAL_MORE_TAG][rng.below(2)],
            None => v.push(SEAL_MORE_TAG),
        },
        _ => {
            // Forged vote: keep (or plant) the vote tag, then garble the
            // varint frame index and digest bytes after it.
            let tag = build_vote_frame(0, 0)[0];
            if v.is_empty() {
                v.push(tag);
            } else {
                v[0] = tag;
            }
            for _ in 0..=rng.below(6) {
                if v.len() > 1 {
                    let i = 1 + rng.below(v.len() - 1);
                    v[i] ^= (rng.next() as u8).max(1);
                } else {
                    v.push(rng.next() as u8);
                }
            }
        }
    }
    (v, false)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let iterations: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0xF7A3);
    let corpus = corpus();
    let mut rng = Rng(seed);
    let (mut sealed_ok, mut sealed_err, mut rec_ok, mut rec_err) = (0u64, 0u64, 0u64, 0u64);
    let (mut vote_ok, mut vote_err, mut tag_swaps) = (0u64, 0u64, 0u64);
    for i in 0..iterations {
        let base = &corpus[rng.below(corpus.len())];
        let (mutant, tag_swap) = mutate(&mut rng, base);
        let mutant = bytes::Bytes::from(mutant);
        // The sealed-frame opener: must classify, never panic, and never
        // accept a frame whose flush-boundary tag was swapped.
        match open_frame(&mutant) {
            Ok(_) if tag_swap => panic!("iteration {i} (seed {seed:#x}): a seal-tag swap opened"),
            Ok(_) => sealed_ok += 1,
            Err(e) => {
                let _ = e.to_string();
                sealed_err += 1;
                tag_swaps += u64::from(tag_swap);
            }
        }
        // The digest-vote parser the quorum gate trusts with byzantine
        // inputs: must classify, never panic.
        match parse_vote_frame(&mutant) {
            Ok(_) => vote_ok += 1,
            Err(e) => {
                let _ = e.to_string();
                vote_err += 1;
            }
        }
        // The record decoders behind it (fixed single-record and batch).
        let mut out = Vec::new();
        match RecordDecoder::new().decode_frame(mutant, &mut out) {
            Ok(()) => rec_ok += 1,
            Err(e) => {
                let _ = e.to_string();
                rec_err += 1;
            }
        }
    }
    println!(
        "fuzzed {iterations} mutants (seed {seed:#x}): open_frame {sealed_ok} ok / {sealed_err} rejected \
         ({tag_swaps} seal-tag swaps); vote parse {vote_ok} ok / {vote_err} rejected; \
         record decode {rec_ok} ok / {rec_err} rejected; no panics"
    );
}
