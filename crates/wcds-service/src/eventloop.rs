//! Readiness-driven serving engine: one epoll loop, many connections.
//!
//! The loop thread owns every socket. Connections live in a slab
//! (`Vec<Option<Conn>>` plus a free list); the slab index is the epoll
//! token. Each readiness wake drains *all* complete frames buffered on
//! the connection ([`crate::protocol::FrameDecoder`]) and answers them
//! in request order — that is the pipelining path: a client that
//! writes N frames back-to-back costs one wake, not N round trips.
//!
//! Work placement:
//!
//! * requests servable from a **fresh published snapshot** (`Ping`,
//!   `List`, and `Route`/`Broadcast`/`Stats`/`Construct` when
//!   [`crate::store::Store::is_fresh`] says the cached bundle matches
//!   the live epoch) are handled inline on the loop thread — the
//!   store's lock-free fast path makes them a few atomic loads;
//! * everything else (mutations, cache misses that rebuild, exports)
//!   is offloaded to a small **executor pool** over per-executor
//!   channels. At most one request per connection is in flight at a
//!   time, so responses stay in request order; frames queued behind an
//!   offloaded request wait in the decoder. Executors push completions
//!   into a shared vector and nudge the loop awake through the
//!   [`crate::sys::Waker`] eventfd — the completion mutex is dropped
//!   *before* the wake, so no lock is ever held across a syscall.
//!
//! Flow control:
//!
//! * a connection whose unflushed response backlog exceeds
//!   [`MAX_OUT_BACKLOG`] stops being read until the peer drains it
//!   (write backpressure — a slow reader cannot balloon the server);
//! * a connection stalled **mid-frame** with no forward progress is
//!   dropped after roughly two sweep ticks, so a slow-loris peer costs
//!   a slab slot for ~2×`io_timeout`, never a thread;
//! * silent idle connections are reaped after `idle_ticks` sweeps,
//!   matching the worker-pool engine's idle policy.
//!
//! Both engines answer through [`crate::server::handle`], so replaying
//! a request log through either produces byte-identical responses; the
//! loop's extra freshness peek ([`crate::store::Store::is_fresh`])
//! deliberately touches no counters.

#![cfg_attr(
    not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))),
    allow(dead_code)
)]

use crate::protocol::{write_frame, FrameDecoder, Request, Response};
use crate::server::{handle, wire_error_response, Shared};
use crate::store::{ServiceCounters, Store};
use crate::sys::{Event, Poller, Waker};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Epoll token for the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll token for the executor-completion waker eventfd.
const WAKER_TOKEN: u64 = u64::MAX - 1;
/// Unflushed response bytes above which a connection stops being read
/// until the peer drains its socket (write backpressure).
const MAX_OUT_BACKLOG: usize = 1 << 20;
/// Undecoded request bytes buffered ahead of the request being served
/// (one in flight on the executors, or a complete frame not yet
/// decoded); above this the loop stops reading the connection, so a
/// pipelining client cannot balloon the decoder. A single incomplete
/// frame is never capped here: `MAX_FRAME_LEN` bounds it.
const MAX_DECODER_BACKLOG: usize = 256 * 1024;

/// A request offloaded from the loop to an executor.
pub(crate) struct Job {
    slot: usize,
    gen: u64,
    request: Request,
}

/// An executor's finished response, routed back by (slot, gen).
pub(crate) struct Completion {
    slot: usize,
    gen: u64,
    response: Response,
}

/// One connection's state in the slab.
struct Conn {
    stream: TcpStream,
    fd: i32,
    /// Guards against a stale completion landing in a recycled slot.
    gen: u64,
    decoder: FrameDecoder,
    /// Encoded response frames not yet fully written, in request order.
    out: Vec<u8>,
    out_pos: usize,
    /// Whether a request from this connection is on the executors.
    in_flight: bool,
    /// Close once `out` drains (shutdown response, protocol error).
    close_after_flush: bool,
    /// Peer half-closed; serve what is buffered, then reap.
    eof: bool,
    /// Sweep ticks since the last forward progress.
    ticks: u32,
    armed_read: bool,
    armed_write: bool,
}

enum ReadOutcome {
    /// Kernel buffer drained (or backpressure paused the read).
    More,
    /// Clean EOF.
    Eof,
    /// Unrecoverable socket error; reap now.
    Dead,
}

/// Starts the event-loop engine: the loop thread plus the executor
/// pool. Returns their join handles (loop first).
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> io::Result<(JoinHandle<()>, Vec<JoinHandle<()>>)> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let waker = Arc::new(Waker::new()?);
    poller.add(listener_fd(&listener), LISTENER_TOKEN, true, false)?;
    poller.add(waker.fd(), WAKER_TOKEN, true, false)?;

    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let mut senders = Vec::new();
    let mut executors = Vec::new();
    for i in 0..shared.config.workers.max(1) {
        let (tx, rx) = mpsc::channel::<Job>();
        senders.push(tx);
        let shared = Arc::clone(&shared);
        let completions = Arc::clone(&completions);
        let waker = Arc::clone(&waker);
        executors.push(
            std::thread::Builder::new()
                .name(format!("wcds-exec-{i}"))
                .spawn(move || executor_loop(&rx, &shared.store, &completions, &waker))?,
        );
    }

    let loop_thread = std::thread::Builder::new().name("wcds-eventloop".into()).spawn(
        move || {
            event_loop(&listener, &poller, &waker, &senders, &completions, &shared);
            // senders drop here: executors drain their queues and exit
        },
    )?;
    Ok((loop_thread, executors))
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn listener_fd(listener: &TcpListener) -> i32 {
    use std::os::fd::AsRawFd;
    listener.as_raw_fd()
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn stream_fd(stream: &TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn listener_fd(_listener: &TcpListener) -> i32 {
    -1 // unreachable in practice: Server::bind gates on sys::supported()
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn stream_fd(_stream: &TcpStream) -> i32 {
    -1
}

/// The readiness loop. Returns when shutdown is requested (by a wire
/// `Shutdown` frame or [`Shared::trigger_shutdown`]); the loopback
/// nudge from the trigger creates listener readiness, so a parked
/// `epoll_wait` wakes promptly, and the sweep tick bounds the worst
/// case either way.
pub(crate) fn event_loop(
    listener: &TcpListener,
    poller: &Poller,
    waker: &Waker,
    senders: &[mpsc::Sender<Job>],
    completions: &Mutex<Vec<Completion>>,
    shared: &Shared,
) {
    let counters = Arc::clone(shared.store.service());
    let tick = shared.config.io_timeout;
    let tick_ms = i32::try_from(tick.as_millis()).unwrap_or(100).max(1);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut next_gen: u64 = 0;
    let mut rr: usize = 0;
    let mut last_sweep = Instant::now();

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // best-effort final flush so in-flight responses (notably
            // the ShuttingDown ack, already queued and almost always
            // already written) reach their peers
            for entry in conns.iter_mut() {
                if let Some(c) = entry.as_mut() {
                    let _ = flush_conn(c, &counters);
                }
            }
            return;
        }

        events.clear();
        counters.syscalls.fetch_add(1, Ordering::Relaxed);
        if poller.wait(&mut events, tick_ms).is_err() {
            return; // the epoll fd itself failed: unrecoverable
        }

        for ev in events.iter().copied() {
            match ev.token {
                LISTENER_TOKEN => {
                    accept_all(listener, poller, &mut conns, &mut free, &mut next_gen, &counters);
                }
                WAKER_TOKEN => {
                    counters.syscalls.fetch_add(1, Ordering::Relaxed);
                    waker.drain();
                }
                _ => {
                    handle_conn_event(
                        ev, &mut conns, &mut free, poller, shared, senders, &mut rr, &counters,
                    );
                }
            }
        }

        // executor completions are checked every iteration, not only on
        // waker events: a wake posted while we were already awake
        // coalesces into readiness we may have just drained
        let done: Vec<Completion> = {
            let mut guard = completions.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut guard)
        };
        for completion in done {
            apply_completion(
                completion, &mut conns, &mut free, poller, shared, senders, &mut rr, &counters,
            );
        }

        if last_sweep.elapsed() >= tick {
            last_sweep = Instant::now();
            sweep(&mut conns, &mut free, poller, shared.config.idle_ticks);
        }
    }
}

/// Executor thread: pull offloaded requests, answer through the shared
/// dispatcher, post the completion, nudge the loop. The completion
/// guard is dropped before the wake so no lock is held across the
/// eventfd write.
pub(crate) fn executor_loop(
    rx: &mpsc::Receiver<Job>,
    store: &Store,
    completions: &Mutex<Vec<Completion>>,
    waker: &Waker,
) {
    while let Ok(job) = rx.recv() {
        let response = handle(store, &job.request);
        let mut guard = completions.lock().unwrap_or_else(PoisonError::into_inner);
        guard.push(Completion { slot: job.slot, gen: job.gen, response });
        drop(guard);
        waker.wake();
    }
    // channel disconnected: the loop thread exited and dropped our
    // sender — nothing left to serve
}

fn accept_all(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    next_gen: &mut u64,
    counters: &ServiceCounters,
) {
    loop {
        counters.syscalls.fetch_add(1, Ordering::Relaxed);
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue; // misconfigurable socket: drop it
                }
                let fd = stream_fd(&stream);
                *next_gen += 1;
                let conn = Conn {
                    stream,
                    fd,
                    gen: *next_gen,
                    decoder: FrameDecoder::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    in_flight: false,
                    close_after_flush: false,
                    eof: false,
                    ticks: 0,
                    armed_read: true,
                    armed_write: false,
                };
                let slot = install(conns, free, conn);
                counters.syscalls.fetch_add(1, Ordering::Relaxed);
                if poller.add(fd, slot_token(slot), true, false).is_err() {
                    // registration failed: release the slot; the stream
                    // closes on drop
                    if let Some(entry) = conns.get_mut(slot) {
                        *entry = None;
                    }
                    free.push(slot);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break, // listener failure: the loop keeps serving
        }
    }
}

fn install(conns: &mut Vec<Option<Conn>>, free: &mut Vec<usize>, conn: Conn) -> usize {
    match free.pop() {
        Some(slot) => {
            if let Some(entry) = conns.get_mut(slot) {
                *entry = Some(conn);
            }
            slot
        }
        None => {
            conns.push(Some(conn));
            conns.len() - 1
        }
    }
}

fn slot_token(slot: usize) -> u64 {
    slot as u64
}

#[allow(clippy::too_many_arguments)]
fn handle_conn_event(
    ev: Event,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    poller: &Poller,
    shared: &Shared,
    senders: &[mpsc::Sender<Job>],
    rr: &mut usize,
    counters: &ServiceCounters,
) {
    let Ok(slot) = usize::try_from(ev.token) else {
        return;
    };
    let mut keep = true;
    {
        let Some(c) = conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // reaped earlier (e.g. by a sweep) — stale event
        };
        if ev.writable {
            // the peer drained its socket: writes can make progress
            // again, so the stall clock restarts
            c.ticks = 0;
        }
        if ev.readable || ev.closed {
            match do_read(c, counters) {
                ReadOutcome::More => {}
                ReadOutcome::Eof => c.eof = true,
                ReadOutcome::Dead => keep = false,
            }
        }
        if keep {
            keep = drain_frames(c, slot, shared, senders, rr, counters);
        }
        if keep {
            keep = settle(c, slot, poller, counters);
        }
    }
    if !keep {
        reap(conns, free, poller, slot);
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_completion(
    completion: Completion,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    poller: &Poller,
    shared: &Shared,
    senders: &[mpsc::Sender<Job>],
    rr: &mut usize,
    counters: &ServiceCounters,
) {
    let slot = completion.slot;
    let mut keep = true;
    {
        let Some(c) = conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // connection died while its request was in flight
        };
        if c.gen != completion.gen {
            return; // slot recycled: the completion's peer is gone
        }
        c.in_flight = false;
        c.ticks = 0;
        if push_response(c, &completion.response).is_err() {
            keep = false;
        }
        if keep {
            // the executor slot is free again: drain any frames that
            // queued up behind the offloaded request
            keep = drain_frames(c, slot, shared, senders, rr, counters);
        }
        if keep {
            keep = settle(c, slot, poller, counters);
        }
    }
    if !keep {
        reap(conns, free, poller, slot);
    }
}

/// Reads until the kernel buffer drains, EOF, or backpressure pauses
/// the connection.
fn do_read(c: &mut Conn, counters: &ServiceCounters) -> ReadOutcome {
    let mut buf = [0u8; 16 * 1024];
    loop {
        let run_ahead_full = c.decoder.buffered() > MAX_DECODER_BACKLOG
            && (c.in_flight || c.decoder.frame_ready());
        if run_ahead_full || c.out.len().saturating_sub(c.out_pos) > MAX_OUT_BACKLOG {
            return ReadOutcome::More; // leave the rest in the kernel
        }
        counters.syscalls.fetch_add(1, Ordering::Relaxed);
        match (&c.stream).read(&mut buf) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => {
                c.ticks = 0;
                c.decoder.feed(buf.get(..n).unwrap_or(&[]));
                if n < buf.len() {
                    // short read: the kernel buffer is (almost surely)
                    // empty, and level-triggered epoll re-arms if not
                    return ReadOutcome::More;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::More,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Dead,
        }
    }
}

/// Decodes and answers every complete frame buffered on `c`, stopping
/// when a request goes in flight on the executors (responses must stay
/// in request order). Returns `false` when the connection is beyond
/// saving (framing violation, oversized response).
fn drain_frames(
    c: &mut Conn,
    slot: usize,
    shared: &Shared,
    senders: &[mpsc::Sender<Job>],
    rr: &mut usize,
    counters: &ServiceCounters,
) -> bool {
    let mut depth: u64 = 0;
    while !c.in_flight && !c.close_after_flush {
        let frame = match c.decoder.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            // oversized or garbage length prefix: hard close with no
            // response, exactly like the blocking engine's read_frame
            Err(_) => return false,
        };
        depth += 1;
        shared.served.fetch_add(1, Ordering::Relaxed);
        match Request::decode(&frame) {
            Ok(Request::Shutdown) => {
                shared.trigger_shutdown();
                if push_response(c, &Response::ShuttingDown).is_err() {
                    return false;
                }
                c.close_after_flush = true;
            }
            Ok(req) => {
                if let Some(response) = inline_response(&shared.store, &req) {
                    if push_response(c, &response).is_err() {
                        return false;
                    }
                } else if !offload(c, slot, req, shared, senders, rr) {
                    return false;
                }
            }
            Err(e) => {
                // a frame that decodes to no request poisons the
                // stream: answer with the typed error, then close
                if push_response(c, &wire_error_response(&e)).is_err() {
                    return false;
                }
                c.close_after_flush = true;
            }
        }
    }
    if depth > 0 {
        counters.pipeline_depth_max.fetch_max(depth, Ordering::Relaxed);
    }
    true
}

/// Requests the loop may answer inline: always-cheap ones, plus any
/// read whose topology has a fresh published snapshot (the store's
/// zero-lock path). The freshness peek touches no counters, so both
/// engines observe identical store statistics on a replayed log.
fn inline_response(store: &Store, req: &Request) -> Option<Response> {
    let fast = match req {
        Request::Ping | Request::List => true,
        Request::Construct { name }
        | Request::Stats { name }
        | Request::Route { name, .. }
        | Request::Broadcast { name, .. } => store.is_fresh(name),
        _ => false,
    };
    fast.then(|| handle(store, req))
}

/// Hands `req` to an executor (round-robin). Falls back to answering
/// inline if the pool is gone (an executor thread panicked and the
/// channel disconnected) — slower, but the peer still gets served.
fn offload(
    c: &mut Conn,
    slot: usize,
    req: Request,
    shared: &Shared,
    senders: &[mpsc::Sender<Job>],
    rr: &mut usize,
) -> bool {
    *rr = rr.wrapping_add(1);
    let job = Job { slot, gen: c.gen, request: req };
    let sent = match senders.get(*rr % senders.len().max(1)) {
        Some(tx) => tx.send(job).map_err(|mpsc::SendError(job)| job),
        None => Err(job),
    };
    match sent {
        Ok(()) => {
            c.in_flight = true;
            true
        }
        Err(job) => {
            let response = handle(&shared.store, &job.request);
            push_response(c, &response).is_ok()
        }
    }
}

/// Appends one encoded response frame to the connection's write queue.
fn push_response(c: &mut Conn, response: &Response) -> Result<(), ()> {
    write_frame(&mut c.out, &response.encode()).map_err(|_| ())
}

/// Writes as much of the queue as the socket accepts right now.
/// `Ok(true)` means fully flushed.
fn flush_conn(c: &mut Conn, counters: &ServiceCounters) -> Result<bool, ()> {
    while c.out_pos < c.out.len() {
        let chunk = c.out.get(c.out_pos..).unwrap_or(&[]);
        counters.syscalls.fetch_add(1, Ordering::Relaxed);
        match (&c.stream).write(chunk) {
            Ok(0) => return Err(()),
            Ok(n) => {
                c.out_pos += n;
                c.ticks = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    if c.out_pos >= c.out.len() {
        c.out.clear();
        c.out_pos = 0;
        return Ok(true);
    }
    if c.out_pos > MAX_DECODER_BACKLOG {
        // compact a large flushed prefix so a long pipelined burst
        // doesn't pin its whole history in memory
        c.out.drain(..c.out_pos);
        c.out_pos = 0;
    }
    Ok(false)
}

/// Flushes, decides whether the connection survives, and re-arms its
/// epoll interest. Returns `false` to reap.
fn settle(c: &mut Conn, slot: usize, poller: &Poller, counters: &ServiceCounters) -> bool {
    let Ok(flushed) = flush_conn(c, counters) else {
        return false;
    };
    if flushed && !c.in_flight && (c.close_after_flush || c.eof) {
        // everything owed has been written: close. On eof, leftover
        // decoder bytes can only be a truncated trailing frame.
        return false;
    }
    let backlog = c.out.len().saturating_sub(c.out_pos);
    // a connection waiting on its offloaded request may buffer only a
    // bounded run-ahead of undecoded frames before reads pause
    let run_ahead_full = c.in_flight && c.decoder.buffered() > MAX_DECODER_BACKLOG;
    let want_read =
        !c.eof && !c.close_after_flush && backlog <= MAX_OUT_BACKLOG && !run_ahead_full;
    let want_write = backlog > 0;
    if want_read != c.armed_read || want_write != c.armed_write {
        counters.syscalls.fetch_add(1, Ordering::Relaxed);
        if poller.modify(c.fd, slot_token(slot), want_read, want_write).is_err() {
            return false;
        }
        c.armed_read = want_read;
        c.armed_write = want_write;
    }
    true
}

/// Ages every connection one tick; reaps mid-frame stalls fast
/// (slow-loris defence) and idle or wedged peers after `idle_ticks`.
fn sweep(
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    poller: &Poller,
    idle_ticks: u32,
) {
    let mut victims = Vec::new();
    for (slot, entry) in conns.iter_mut().enumerate() {
        if let Some(c) = entry.as_mut() {
            c.ticks = c.ticks.saturating_add(1);
            let stalled_mid_frame = !c.in_flight && c.decoder.mid_frame() && c.ticks >= 2;
            if stalled_mid_frame || c.ticks > idle_ticks {
                victims.push(slot);
            }
        }
    }
    for slot in victims {
        reap(conns, free, poller, slot);
    }
}

fn reap(conns: &mut [Option<Conn>], free: &mut Vec<usize>, poller: &Poller, slot: usize) {
    if let Some(c) = conns.get_mut(slot).and_then(Option::take) {
        let _ = poller.remove(c.fd);
        free.push(slot);
        // the TcpStream closes on drop here
    }
}
