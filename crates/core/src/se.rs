//! Side-effect (SE) handlers — the paper's novel interface for recovering
//! volatile environment state and guaranteeing exactly-once output (§4.4).
//!
//! A handler manages a family of related native methods (e.g. all file
//! I/O) through five methods, named exactly as in the paper:
//!
//! * [`SideEffectHandler::register`] — declares which native methods the
//!   handler manages;
//! * [`SideEffectHandler::log`] — called at the **primary** after one of
//!   the managed natives executes; returns a message with whatever state
//!   is needed to recover the output or the volatile state it created;
//! * [`SideEffectHandler::receive`] — called at the **backup** for each
//!   logged message; may *compress* (e.g. keep only the latest file offset
//!   rather than every write);
//! * [`SideEffectHandler::test`] — called at the backup during recovery to
//!   decide whether an *uncertain* output (committed, but possibly not
//!   performed before the crash) actually reached the environment;
//! * [`SideEffectHandler::restore`] — called exactly once at the backup to
//!   re-create the primary's lost volatile state (e.g. reopen files and
//!   seek to the recovered offsets).

use crate::backup::ReplayError;
use bytes::Bytes;
use ftjvm_netsim::{WireError, WireReader, WireWriter};
use ftjvm_vm::native::NativeOutcome;
use ftjvm_vm::{SimEnv, Value, World};
use std::collections::BTreeMap;

/// What a handler declares about itself.
#[derive(Debug, Clone)]
pub struct SeRegistration {
    /// Handler name (diagnostics).
    pub name: &'static str,
    /// Signature names of the natives this handler manages.
    pub natives: Vec<&'static str>,
}

/// A side-effect handler. See the module docs for the protocol; all
/// methods have defaults so simple handlers implement only what they need.
pub trait SideEffectHandler {
    /// Declares the handler's name and managed natives.
    fn register(&self) -> SeRegistration;

    /// Primary-side: called after a managed native executed. May return a
    /// state message to ship to the backup.
    fn log(
        &mut self,
        env: &SimEnv,
        native: &str,
        args: &[Value],
        outcome: &NativeOutcome,
        output_id: Option<u64>,
    ) -> Option<Bytes> {
        let _ = (env, native, args, outcome, output_id);
        None
    }

    /// Backup-side: absorbs (and may compress) one logged state message.
    fn receive(&mut self, payload: Bytes) {
        let _ = payload;
    }

    /// Backup-side: did the uncertain output `output_id` reach the
    /// environment before the crash? The default consults the world's
    /// applied-output registry, which is how both built-in handlers make
    /// their outputs *testable* (restriction R5).
    fn test(&self, world: &World, output_id: u64) -> bool {
        world.output_applied(output_id)
    }

    /// Backup-side: installs the recovered volatile state into this
    /// replica's environment. Invoked exactly once.
    ///
    /// # Errors
    /// A malformed state message, in which case `env` is left untouched.
    fn restore(&mut self, env: &mut SimEnv) -> Result<(), WireError> {
        let _ = env;
        Ok(())
    }
}

/// The registry of side-effect handlers for one replica pair.
#[derive(Default)]
pub struct SeRegistry {
    handlers: Vec<Box<dyn SideEffectHandler>>,
    by_native: BTreeMap<String, u8>,
}

impl std::fmt::Debug for SeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.handlers.iter().map(|h| h.register().name).collect();
        f.debug_struct("SeRegistry").field("handlers", &names).finish()
    }
}

impl SeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SeRegistry::default()
    }

    /// The registry with the standard-library handlers installed (file
    /// I/O and console), as the paper's implementation installs its JRE
    /// handlers at startup.
    pub fn with_builtins() -> Self {
        let mut r = SeRegistry::new();
        r.add(Box::new(FileIoHandler::default()));
        r.add(Box::new(ConsoleHandler));
        r.add(Box::new(SocketHandler::default()));
        r
    }

    /// Adds a handler (applications add their own the same way).
    ///
    /// # Panics
    /// Panics if more than 255 handlers are registered or two handlers
    /// claim the same native.
    pub fn add(&mut self, handler: Box<dyn SideEffectHandler>) -> u8 {
        let id = u8::try_from(self.handlers.len()).expect("at most 255 side-effect handlers");
        let reg = handler.register();
        for n in &reg.natives {
            let prev = self.by_native.insert((*n).to_string(), id);
            assert!(prev.is_none(), "native `{n}` already managed by another handler");
        }
        self.handlers.push(handler);
        id
    }

    /// The handler id managing `native`, if any.
    pub fn handler_for(&self, native: &str) -> Option<u8> {
        self.by_native.get(native).copied()
    }

    /// Primary-side log hook; returns `(handler id, payload)` to ship.
    pub fn log(
        &mut self,
        env: &SimEnv,
        native: &str,
        args: &[Value],
        outcome: &NativeOutcome,
        output_id: Option<u64>,
    ) -> Option<(u8, Bytes)> {
        let id = self.handler_for(native)?;
        let payload = self.handlers[id as usize].log(env, native, args, outcome, output_id)?;
        Some((id, payload))
    }

    /// Backup-side receive hook.
    pub fn receive(&mut self, handler: u8, payload: Bytes) {
        if let Some(h) = self.handlers.get_mut(handler as usize) {
            h.receive(payload);
        }
    }

    /// Backup-side testable-output query for the native's handler; natives
    /// without a handler fall back to the world's applied registry.
    pub fn test(&self, native: &str, world: &World, output_id: u64) -> bool {
        match self.handler_for(native) {
            Some(id) => self.handlers[id as usize].test(world, output_id),
            None => world.output_applied(output_id),
        }
    }

    /// Backup-side restore: every handler installs its recovered state.
    ///
    /// # Errors
    /// [`ReplayError::MalformedSeState`] naming the first handler whose
    /// state message does not parse; that handler changed nothing.
    pub fn restore(&mut self, env: &mut SimEnv) -> Result<(), ReplayError> {
        for h in &mut self.handlers {
            h.restore(env)
                .map_err(|_| ReplayError::MalformedSeState { handler: h.register().name })?;
        }
        Ok(())
    }
}

/// One open file or socket in a handler's state message: descriptor,
/// name, and a count (a file offset or a connection's sends).
type Row = (u64, String, u64);

/// The shape both stateful built-in handlers ship: the next descriptor,
/// then one [`Row`] per open file or socket.
fn encode_table(next: u64, rows: impl ExactSizeIterator<Item = Row>) -> Bytes {
    let mut w = WireWriter::new();
    w.put_u64(next);
    w.put_u32(rows.len() as u32);
    for (id, name, count) in rows {
        w.put_u64(id);
        w.put_str(&name);
        w.put_u64(count);
    }
    w.finish()
}

/// Parses a whole [`encode_table`] payload before anything is applied, so
/// a malformed one restores nothing.
fn decode_table(payload: Bytes) -> Result<(u64, Vec<Row>), WireError> {
    let mut r = WireReader::new(payload);
    let next = r.get_u64()?;
    let n = r.get_u32()?;
    let mut rows = Vec::new();
    for _ in 0..n {
        rows.push((r.get_u64()?, r.get_str()?, r.get_u64()?));
    }
    Ok((next, rows))
}

/// Built-in handler for the `file.*` natives.
///
/// At the primary it logs, after every managed call, a compressed snapshot
/// of the volatile open-file table (descriptor, name, offset, plus the
/// next-descriptor counter). `receive` keeps only the latest snapshot —
/// the paper's example of compressing "the results of several file writes
/// into one offset for the file pointer". `restore` reopens every file at
/// its recovered offset.
#[derive(Debug, Default)]
pub struct FileIoHandler {
    latest: Option<Bytes>,
}

impl FileIoHandler {
    fn snapshot(env: &SimEnv) -> Bytes {
        let files: Vec<_> =
            env.open_files().map(|(vfd, f)| (vfd, f.name.clone(), f.offset as u64)).collect();
        encode_table(env.peek_next_vfd(), files.into_iter())
    }
}

impl SideEffectHandler for FileIoHandler {
    fn register(&self) -> SeRegistration {
        SeRegistration {
            name: "file-io",
            natives: vec![
                "file.open",
                "file.close",
                "file.read",
                "file.write",
                "file.seek",
                "file.size",
            ],
        }
    }

    fn log(
        &mut self,
        env: &SimEnv,
        _native: &str,
        _args: &[Value],
        _outcome: &NativeOutcome,
        _output_id: Option<u64>,
    ) -> Option<Bytes> {
        Some(Self::snapshot(env))
    }

    fn receive(&mut self, payload: Bytes) {
        // Compression: only the latest snapshot matters.
        self.latest = Some(payload);
    }

    fn restore(&mut self, env: &mut SimEnv) -> Result<(), WireError> {
        let Some(payload) = self.latest.take() else { return Ok(()) };
        let (next_vfd, files) = decode_table(payload)?;
        for (vfd, name, offset) in files {
            env.restore_open_file(vfd, &name, offset as usize);
        }
        env.set_next_vfd(next_vfd);
        Ok(())
    }
}

/// Built-in handler for the `sock.*` natives — the paper's motivating
/// case for side-effect handlers: socket sends are not idempotent, so the
/// extra layer (a) tags each send with its committed output id, letting
/// the receiving side discard retransmissions (idempotence) and the
/// backup `test` whether an uncertain send was delivered (testability),
/// and (b) recovers the volatile connection table (descriptors +
/// per-connection send counts) via `log`/`receive`/`restore`, so a
/// recovered backup resumes the stream at the right sequence number.
#[derive(Debug, Default)]
pub struct SocketHandler {
    latest: Option<Bytes>,
}

impl SocketHandler {
    fn snapshot(env: &SimEnv) -> Bytes {
        let socks: Vec<_> =
            env.open_sockets().map(|(sd, c)| (sd, c.peer.clone(), c.sent)).collect();
        encode_table(env.peek_next_sd(), socks.into_iter())
    }
}

impl SideEffectHandler for SocketHandler {
    fn register(&self) -> SeRegistration {
        SeRegistration { name: "socket", natives: vec!["sock.connect", "sock.send", "sock.close"] }
    }

    fn log(
        &mut self,
        env: &SimEnv,
        _native: &str,
        _args: &[Value],
        _outcome: &NativeOutcome,
        _output_id: Option<u64>,
    ) -> Option<Bytes> {
        Some(Self::snapshot(env))
    }

    fn receive(&mut self, payload: Bytes) {
        self.latest = Some(payload);
    }

    fn restore(&mut self, env: &mut SimEnv) -> Result<(), WireError> {
        let Some(payload) = self.latest.take() else { return Ok(()) };
        let (next_sd, socks) = decode_table(payload)?;
        for (sd, peer, sent) in socks {
            env.restore_socket(sd, &peer, sent);
        }
        env.set_next_sd(next_sd);
        Ok(())
    }
}

/// Built-in handler for console output (`sys.print`, `sys.print_int`).
///
/// Console output creates no volatile state, so `log`/`receive`/`restore`
/// are no-ops; the handler exists to make console output *testable*
/// through the default `test`.
#[derive(Debug)]
pub struct ConsoleHandler;

impl SideEffectHandler for ConsoleHandler {
    fn register(&self) -> SeRegistration {
        SeRegistration { name: "console", natives: vec!["sys.print", "sys.print_int"] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftjvm_netsim::SimTime;
    use ftjvm_vm::env::{OpenFile, SocketConn};

    #[test]
    fn registry_routes_by_native() {
        let r = SeRegistry::with_builtins();
        assert_eq!(r.handler_for("file.open"), Some(0));
        assert_eq!(r.handler_for("sys.print"), Some(1));
        assert_eq!(r.handler_for("sock.send"), Some(2));
        assert_eq!(r.handler_for("sys.clock"), None);
    }

    #[test]
    #[should_panic(expected = "already managed")]
    fn duplicate_native_claims_panic() {
        let mut r = SeRegistry::with_builtins();
        r.add(Box::new(ConsoleHandler));
    }

    #[test]
    fn file_handler_snapshot_roundtrip() {
        let world = World::shared();
        let mut penv = SimEnv::new("p", world.clone(), SimTime::ZERO, 1);
        let fd1 = penv.open("a.txt", None);
        let fd2 = penv.open("b.txt", None);
        penv.write(fd1, b"hello", 1).unwrap();
        penv.seek(fd2, 3).unwrap();

        let mut h = FileIoHandler::default();
        let snap = FileIoHandler::snapshot(&penv);
        h.receive(snap);

        let mut benv = SimEnv::new("b", world, SimTime::ZERO, 2);
        h.restore(&mut benv).expect("a well-formed snapshot");
        assert_eq!(benv.offset(fd1), Some(5));
        assert_eq!(benv.offset(fd2), Some(3));
        // Fresh descriptors do not collide with anything the primary used.
        let fd3 = benv.open("c.txt", None);
        assert!(fd3 > fd2);
    }

    /// Everything `restore` may touch: the fd and socket tables and both
    /// next-descriptor counters.
    fn volatile(env: &SimEnv) -> String {
        let files: Vec<(u64, &OpenFile)> = env.open_files().collect();
        let socks: Vec<(u64, &SocketConn)> = env.open_sockets().collect();
        format!("{files:?} {} {socks:?} {}", env.peek_next_vfd(), env.peek_next_sd())
    }

    #[test]
    fn malformed_state_messages_restore_nothing() {
        let world = World::shared();
        let mut penv = SimEnv::new("p", world.clone(), SimTime::ZERO, 1);
        let fd1 = penv.open("a.txt", None);
        let fd2 = penv.open("b.txt", None);
        penv.write(fd1, b"hello", 1).unwrap();
        penv.seek(fd2, 3).unwrap();
        penv.sock_connect("peer-a", None);
        penv.sock_connect("peer-b", None);
        let handler = |name| -> Box<dyn SideEffectHandler> {
            match name {
                "file-io" => Box::<FileIoHandler>::default(),
                _ => Box::<SocketHandler>::default(),
            }
        };
        let messages = [
            ("file-io", FileIoHandler::snapshot(&penv)),
            ("socket", SocketHandler::snapshot(&penv)),
        ];
        for (name, full) in messages {
            for cut in 0..full.len() {
                let mut h = handler(name);
                h.receive(full.slice(..cut));
                let mut benv = SimEnv::new("b", world.clone(), SimTime::ZERO, 2);
                benv.open("backup-only.txt", None);
                let before = volatile(&benv);
                assert!(h.restore(&mut benv).is_err(), "{name}: {cut}-byte prefix restored");
                assert_eq!(volatile(&benv), before, "{name}: {cut}-byte prefix half-applied");
            }
            let mut h = handler(name);
            h.receive(full);
            let mut benv = SimEnv::new("b", world.clone(), SimTime::ZERO, 2);
            h.restore(&mut benv).expect("the whole message restores");
        }
        // Both whole messages together rebuild the primary's tables.
        let mut r = SeRegistry::with_builtins();
        r.receive(0, FileIoHandler::snapshot(&penv));
        r.receive(2, SocketHandler::snapshot(&penv));
        let mut benv = SimEnv::new("b", world.clone(), SimTime::ZERO, 2);
        r.restore(&mut benv).expect("well-formed messages");
        assert_eq!(volatile(&benv), volatile(&penv), "fd and socket tables round-trip");
        // Through the registry, a malformed message is a typed replay error.
        let mut r = SeRegistry::with_builtins();
        r.receive(2, Bytes::from_static(b"short"));
        let mut benv = SimEnv::new("b", world, SimTime::ZERO, 2);
        assert_eq!(r.restore(&mut benv), Err(ReplayError::MalformedSeState { handler: "socket" }));
    }

    #[test]
    fn test_defaults_to_world_applied_registry() {
        let world = World::shared();
        world.borrow_mut().println(7, "p", "x");
        let r = SeRegistry::with_builtins();
        assert!(r.test("sys.print", &world.borrow(), 7));
        assert!(!r.test("sys.print", &world.borrow(), 8));
        assert!(r.test("unmanaged.native", &world.borrow(), 7));
    }

    #[test]
    fn compression_keeps_only_latest() {
        let mut h = FileIoHandler::default();
        h.receive(Bytes::from_static(b"old"));
        h.receive(Bytes::from_static(b"new"));
        assert_eq!(h.latest.as_deref(), Some(&b"new"[..]));
    }
}
