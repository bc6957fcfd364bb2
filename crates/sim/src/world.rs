//! The discrete-event world: scheduler plus engine-agnostic run machinery.
//!
//! All simulated nondeterminism (message latency, scheduling jitter,
//! workload jitter) flows from one seeded generator, so a run is a pure
//! function of `(program, topology, config, plan)`. The Explorer exploits
//! this: a successful round is replayed exactly by re-running with the same
//! seed and an [`InjectionPlan::exact`] plan — the paper's "deterministic
//! reproduction script" (§3 step 4.a).
//!
//! Statement execution is pluggable ([`crate::config::Engine`]): the default
//! register-VM executor runs the lowered instruction stream produced by
//! [`anduril_ir::lower`], while the original tree-walking interpreter is
//! retained behind the `tree-walk-oracle` feature as a differential oracle.
//! Everything else — event scheduling, thread lifecycle, control-flow
//! unwinding, fault-injection bookkeeping, log emission, RNG draws — is
//! shared by both engines, which is what makes their runs byte-identical.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use crate::config::{Engine, SimConfig, Topology};
use crate::fir::{Fir, InjectionPlan};
use crate::result::{NodeSnapshot, RunResult, ThreadEndState, ThreadSnapshot};
use crate::rng::SmallRng;
use crate::thread::{
    BlockReason, Cursor, CursorKind, Frame, Pending, Role, Thread, ThreadId, ThreadStatus, WakeNote,
};
use anduril_ir::builder::{STMT_RUNTIME, TMPL_NODE_CRASH, TMPL_UNCAUGHT};
use anduril_ir::lower::CompiledProgram;
use anduril_ir::{
    ChanId, ExcValue, FuncId, Level, LogEntry, Program, StmtRef, TemplateId, Value, VarId,
};

mod events;
mod exec_vm;

#[cfg(any(test, feature = "tree-walk-oracle"))]
mod exec_ast;

use events::EventQueue;

/// Errors surfaced by the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A value had the wrong type for an operation.
    Type {
        /// The statement being executed (if known).
        stmt: Option<StmtRef>,
        /// Description of the mismatch.
        msg: String,
    },
    /// A message was addressed to an unknown node.
    NoSuchNode(String),
    /// The run exceeded [`SimConfig::max_steps`].
    StepLimit,
    /// A structural invariant was violated (an IR or interpreter bug).
    Internal(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Type { stmt, msg } => match stmt {
                Some(s) => write!(f, "type error at {s}: {msg}"),
                None => write!(f, "type error: {msg}"),
            },
            SimError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            SimError::StepLimit => write!(f, "step limit exceeded"),
            SimError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Runs one simulation to completion (quiescence, horizon, or step limit),
/// compiling the program first. Hot callers that replay the same program
/// many times should compile once and use [`run_compiled`].
pub fn run(
    program: &Program,
    topo: &Topology,
    cfg: &SimConfig,
    plan: InjectionPlan,
) -> Result<RunResult, SimError> {
    let compiled = anduril_ir::lower::compile(program);
    run_compiled(program, &compiled, topo, cfg, plan)
}

/// Runs one simulation over an already-compiled program — the Explorer's
/// per-round hot path (the `SearchContext` caches the compilation).
pub fn run_compiled(
    program: &Program,
    compiled: &CompiledProgram,
    topo: &Topology,
    cfg: &SimConfig,
    plan: InjectionPlan,
) -> Result<RunResult, SimError> {
    let mut world = World::new(program, compiled, topo, cfg, plan)?;
    world.drive()?;
    Ok(world.finish())
}

#[derive(Debug)]
struct EventEntry {
    time: u64,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug)]
enum EventKind {
    /// Run (or unblock, when `expired`) a thread.
    Wake {
        tid: ThreadId,
        token: u64,
        expired: bool,
    },
    /// Deliver a message to `(node, chan)`.
    Deliver {
        node: usize,
        chan: ChanId,
        payload: Value,
    },
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

#[derive(Debug)]
struct FutureState {
    done: Option<Result<Value, Arc<ExcValue>>>,
    waiters: Vec<ThreadId>,
}

#[derive(Debug)]
struct Task {
    func: FuncId,
    args: Vec<Value>,
    future: u64,
}

#[derive(Debug, Default)]
struct ExecState {
    queue: VecDeque<Task>,
    worker: Option<ThreadId>,
}

#[derive(Debug)]
struct Node {
    name: Arc<str>,
    alive: bool,
    aborted: bool,
    globals: Vec<Value>,
    chans: Vec<VecDeque<Value>>,
    chan_waiters: Vec<VecDeque<ThreadId>>,
    cond_waiters: Vec<Vec<ThreadId>>,
    execs: Vec<ExecState>,
    spawn_counts: HashMap<Arc<str>, u32>,
}

/// Control-flow outcome of executing one statement.
enum Flow {
    /// Advance to the next statement.
    Next,
    /// The statement blocked; re-execute it on wake-up.
    Stay,
    /// Cursor/frame stack already adjusted (branch taken, call pushed).
    Jump,
    /// An exception was raised.
    Throw(Arc<ExcValue>),
    /// `return expr`.
    Return(Value),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// The thread ended (halt, node abort).
    Stop,
}

struct World<'p> {
    program: &'p Program,
    compiled: &'p CompiledProgram,
    engine: Engine,
    cfg: SimConfig,
    rng: SmallRng,
    clock: u64,
    seq: u64,
    events: EventQueue,
    threads: Vec<Thread>,
    nodes: Vec<Node>,
    node_by_name: HashMap<Arc<str>, usize>,
    futures: Vec<FutureState>,
    log: Vec<LogEntry>,
    fir: Fir,
    steps: u64,
    /// Meta access points as a hash set — only built for the tree-walk
    /// engine; the VM tests the compiled bitset instead.
    meta_set: HashSet<StmtRef>,
    /// The VM's scratch register frame, reused across every statement of
    /// the whole run (sized to the widest statement at compile time).
    regs: Vec<Value>,
    /// Recycled locals/argument buffers: returned frames feed this pool so
    /// steady-state calls reuse allocations instead of hitting the heap.
    spare_vals: Vec<Vec<Value>>,
    /// Recycled cursor stacks, same lifecycle as `spare_vals`.
    spare_cursors: Vec<Vec<Cursor>>,
    started: Instant,
}

impl<'p> World<'p> {
    fn new(
        program: &'p Program,
        compiled: &'p CompiledProgram,
        topo: &Topology,
        cfg: &SimConfig,
        plan: InjectionPlan,
    ) -> Result<Self, SimError> {
        #[cfg(not(any(test, feature = "tree-walk-oracle")))]
        if cfg.engine == Engine::TreeWalk {
            return Err(SimError::Internal(
                "tree-walk engine requires the `tree-walk-oracle` feature".into(),
            ));
        }
        let meta_set = if cfg.engine == Engine::TreeWalk {
            compiled.meta_points.iter().copied().collect()
        } else {
            HashSet::new()
        };
        let mut world = World {
            program,
            compiled,
            engine: cfg.engine,
            cfg: cfg.clone(),
            rng: SmallRng::seed_from_u64(cfg.seed),
            clock: 0,
            seq: 0,
            events: EventQueue::new(),
            threads: Vec::new(),
            nodes: Vec::new(),
            node_by_name: HashMap::new(),
            futures: Vec::new(),
            log: Vec::with_capacity(64),
            fir: Fir::new(program.sites.len(), plan),
            steps: 0,
            meta_set,
            regs: vec![Value::Unit; compiled.max_regs],
            spare_vals: Vec::new(),
            spare_cursors: Vec::new(),
            started: Instant::now(),
        };
        for (i, spec) in topo.nodes.iter().enumerate() {
            if world.node_by_name.contains_key(spec.name.as_str()) {
                return Err(SimError::Internal(format!(
                    "duplicate node name {}",
                    spec.name
                )));
            }
            let name: Arc<str> = Arc::from(spec.name.as_str());
            world.node_by_name.insert(name.clone(), i);
            world.nodes.push(Node {
                name,
                alive: true,
                aborted: false,
                globals: program.globals.iter().map(|g| g.init.clone()).collect(),
                chans: vec![VecDeque::new(); program.chans.len()],
                chan_waiters: vec![VecDeque::new(); program.chans.len()],
                cond_waiters: vec![Vec::new(); program.conds.len()],
                execs: (0..program.execs.len())
                    .map(|_| ExecState::default())
                    .collect(),
                spawn_counts: HashMap::new(),
            });
        }
        let main_name: Arc<str> = Arc::from("main");
        for (i, spec) in topo.nodes.iter().enumerate() {
            let tid = world.create_thread(i, &main_name, Role::Normal);
            world.push_entry_frame(tid, spec.main, spec.args.clone(), None)?;
            world.schedule_wake(tid, i as u64, false);
        }
        Ok(world)
    }

    // ---- infrastructure -------------------------------------------------

    fn create_thread(&mut self, node: usize, name: &Arc<str>, role: Role) -> ThreadId {
        let count = self.nodes[node]
            .spawn_counts
            .entry(name.clone())
            .or_insert(0);
        let unique: Arc<str> = if *count == 0 {
            name.clone()
        } else {
            Arc::from(format!("{name}-{count}").as_str())
        };
        *count += 1;
        let tid = self.threads.len();
        self.threads.push(Thread {
            id: tid,
            node,
            name: unique,
            frames: Vec::new(),
            status: ThreadStatus::Runnable,
            role,
            current_future: None,
            wait_token: 0,
            note: WakeNote::None,
        });
        tid
    }

    fn push_entry_frame(
        &mut self,
        tid: ThreadId,
        func: FuncId,
        args: Vec<Value>,
        ret_to: Option<VarId>,
    ) -> Result<(), SimError> {
        let f = &self.program.funcs[func.index()];
        if args.len() != f.params as usize {
            return Err(SimError::Internal(format!(
                "function `{}` expects {} args, got {}",
                f.name,
                f.params,
                args.len()
            )));
        }
        let mut locals = args;
        locals.resize(f.locals as usize, Value::Unit);
        let mut cursors = self.spare_cursors.pop().unwrap_or_default();
        cursors.push(Cursor::new(f.entry, CursorKind::Plain));
        self.threads[tid].frames.push(Frame {
            func,
            locals,
            ret_to,
            cursors,
        });
        Ok(())
    }

    /// Hands out an empty values buffer for call arguments, reusing a
    /// returned frame's locals allocation when one is available.
    fn take_vals(&mut self, cap: usize) -> Vec<Value> {
        match self.spare_vals.pop() {
            Some(mut v) => {
                v.reserve(cap);
                v
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Returns a popped frame's buffers to the recycling pools.
    fn recycle_frame(&mut self, frame: Frame) {
        let Frame {
            mut locals,
            mut cursors,
            ..
        } = frame;
        // Bound the pools so a deep recursive burst cannot pin memory.
        if self.spare_vals.len() < 32 {
            locals.clear();
            self.spare_vals.push(locals);
        }
        if self.spare_cursors.len() < 32 {
            cursors.clear();
            self.spare_cursors.push(cursors);
        }
    }

    fn schedule(&mut self, delay: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(EventEntry {
            time: self.clock + delay,
            seq,
            kind,
        });
    }

    fn schedule_wake(&mut self, tid: ThreadId, delay: u64, expired: bool) {
        let token = self.threads[tid].wait_token;
        self.schedule(
            delay,
            EventKind::Wake {
                tid,
                token,
                expired,
            },
        );
    }

    /// Unblocks a thread immediately (signal / delivery / future path).
    fn wake_thread(&mut self, tid: ThreadId, note: WakeNote) {
        if !self.threads[tid].is_live() {
            return;
        }
        if let ThreadStatus::Blocked(reason) = self.threads[tid].status {
            self.deregister(tid, reason);
            let t = &mut self.threads[tid];
            t.status = ThreadStatus::Runnable;
            t.note = note;
            t.wait_token += 1;
            self.schedule_wake(tid, 0, false);
        }
    }

    fn deregister(&mut self, tid: ThreadId, reason: BlockReason) {
        // Waiter lists are FIFO and the thread being deregistered is almost
        // always the one at the front (it is the one that just woke), so try
        // the O(1) front removal before falling back to the order-preserving
        // scan.
        let node = self.threads[tid].node;
        match reason {
            BlockReason::Chan(c) => {
                let w = &mut self.nodes[node].chan_waiters[c.index()];
                if w.front() == Some(&tid) {
                    w.pop_front();
                } else {
                    w.retain(|t| *t != tid);
                }
            }
            BlockReason::Cond(c) => {
                let w = &mut self.nodes[node].cond_waiters[c.index()];
                if w.first() == Some(&tid) {
                    w.remove(0);
                } else {
                    w.retain(|t| *t != tid);
                }
            }
            BlockReason::Future(f) => {
                let w = &mut self.futures[f as usize].waiters;
                if w.first() == Some(&tid) {
                    w.remove(0);
                } else {
                    w.retain(|t| *t != tid);
                }
            }
            BlockReason::Sleep | BlockReason::IdleWorker => {}
        }
    }

    fn park(&mut self, tid: ThreadId, reason: BlockReason, timeout: Option<u64>) {
        {
            let t = &mut self.threads[tid];
            t.status = ThreadStatus::Blocked(reason);
            t.note = WakeNote::None;
        }
        let node = self.threads[tid].node;
        match reason {
            BlockReason::Chan(c) => self.nodes[node].chan_waiters[c.index()].push_back(tid),
            BlockReason::Cond(c) => self.nodes[node].cond_waiters[c.index()].push(tid),
            BlockReason::Future(f) => self.futures[f as usize].waiters.push(tid),
            BlockReason::Sleep | BlockReason::IdleWorker => {}
        }
        if let Some(after) = timeout {
            self.schedule_wake(tid, after.max(1), true);
        }
    }

    /// Emits a log entry rendered from a template and pre-rendered argument
    /// strings (the tree-walk and runtime-message path).
    #[allow(clippy::too_many_arguments)] // Log emission legitimately carries the full record.
    fn emit(
        &mut self,
        node: usize,
        thread: Arc<str>,
        level: Level,
        template: TemplateId,
        stmt: StmtRef,
        args: &[String],
        exc: Option<&ExcValue>,
        offset: u64,
    ) {
        let body = self.program.templates[template.index()].render(args);
        self.emit_raw(node, thread, level, template, stmt, body, exc, offset);
    }

    /// Emits a log entry with an already-rendered body (the VM's fast path;
    /// node and thread names are interned, so this allocates nothing beyond
    /// the body and the entry itself).
    #[allow(clippy::too_many_arguments)] // Log emission legitimately carries the full record.
    fn emit_raw(
        &mut self,
        node: usize,
        thread: Arc<str>,
        level: Level,
        template: TemplateId,
        stmt: StmtRef,
        body: String,
        exc: Option<&ExcValue>,
        offset: u64,
    ) {
        let (exc_name, stack) = match exc {
            Some(e) => (
                Some(e.render()),
                e.stack
                    .iter()
                    .map(|f| self.program.funcs[f.index()].name.clone())
                    .collect(),
            ),
            None => (None, Vec::new()),
        };
        self.log.push(LogEntry {
            time: self.clock + offset,
            node: self.nodes[node].name.clone(),
            thread,
            level,
            template,
            stmt,
            body: body.into(),
            exc: exc_name,
            stack,
        });
    }

    fn complete_future(&mut self, fid: u64, result: Result<Value, Arc<ExcValue>>) {
        let fut = &mut self.futures[fid as usize];
        if fut.done.is_some() {
            return;
        }
        fut.done = Some(result);
        let waiters = std::mem::take(&mut self.futures[fid as usize].waiters);
        for w in waiters {
            // `wake_thread` re-checks the block reason; waiters parked on
            // this future are woken to re-execute their `Await`.
            self.wake_thread(w, WakeNote::Signaled);
        }
    }

    fn kill_node(&mut self, node: usize) {
        self.nodes[node].alive = false;
        for tid in 0..self.threads.len() {
            if self.threads[tid].node == node && self.threads[tid].is_live() {
                if let ThreadStatus::Blocked(reason) = self.threads[tid].status {
                    self.deregister(tid, reason);
                }
                self.threads[tid].status = ThreadStatus::Killed;
                self.threads[tid].wait_token += 1;
            }
        }
        for chan in &mut self.nodes[node].chans {
            chan.clear();
        }
    }

    // ---- main loop -------------------------------------------------------

    fn drive(&mut self) -> Result<(), SimError> {
        while let Some(ev) = self.events.pop() {
            if ev.time > self.cfg.max_time {
                break;
            }
            self.clock = ev.time;
            match ev.kind {
                EventKind::Wake {
                    tid,
                    token,
                    expired,
                } => {
                    if token != self.threads[tid].wait_token {
                        continue;
                    }
                    match self.threads[tid].status {
                        ThreadStatus::Runnable => self.run_slice(tid)?,
                        ThreadStatus::Blocked(reason) if expired => {
                            self.deregister(tid, reason);
                            let t = &mut self.threads[tid];
                            t.status = ThreadStatus::Runnable;
                            t.note = WakeNote::Expired;
                            t.wait_token += 1;
                            self.run_slice(tid)?;
                        }
                        _ => {}
                    }
                }
                EventKind::Deliver {
                    node,
                    chan,
                    payload,
                } => {
                    if !self.nodes[node].alive {
                        continue;
                    }
                    self.nodes[node].chans[chan.index()].push_back(payload);
                    if let Some(waiter) = self.nodes[node].chan_waiters[chan.index()].front() {
                        let waiter = *waiter;
                        self.wake_thread(waiter, WakeNote::Signaled);
                    }
                }
            }
        }
        Ok(())
    }

    fn run_slice(&mut self, tid: ThreadId) -> Result<(), SimError> {
        // Dispatch on the engine once per slice, not once per step: each
        // arm is a monomorphic loop whose executor call the compiler can
        // see through.
        match self.engine {
            Engine::Vm => self.run_slice_in::<true>(tid),
            Engine::TreeWalk => self.run_slice_in::<false>(tid),
        }
    }

    fn run_slice_in<const VM: bool>(&mut self, tid: ThreadId) -> Result<(), SimError> {
        let quantum = self.cfg.quantum as u64 + self.rng.random_range(0..3);
        let mut elapsed: u64 = 0;
        for _ in 0..quantum {
            if !matches!(self.threads[tid].status, ThreadStatus::Runnable) {
                return Ok(());
            }
            self.step::<VM>(tid, &mut elapsed)?;
            self.steps += 1;
            if self.steps > self.cfg.max_steps {
                return Err(SimError::StepLimit);
            }
        }
        if matches!(self.threads[tid].status, ThreadStatus::Runnable) {
            self.schedule_wake(tid, elapsed.max(1), false);
        }
        Ok(())
    }

    // ---- engine-agnostic stepping ---------------------------------------

    fn step<const VM: bool>(&mut self, tid: ThreadId, elapsed: &mut u64) -> Result<(), SimError> {
        *elapsed += 1;
        if self.threads[tid].frames.is_empty() {
            return self.thread_idle(tid);
        }
        let (block, idx) = {
            let frame = self.threads[tid].frames.last_mut().unwrap();
            match frame.cursors.last() {
                Some(c) => (c.block, c.idx),
                None => {
                    // The function body is exhausted: implicit `return`.
                    return self.do_return(tid, Value::Unit);
                }
            }
        };
        if idx >= self.compiled.block_len[block.index()] as usize {
            return self.block_end(tid);
        }
        let sref = StmtRef::new(block, idx as u32);
        let flat = if VM { self.compiled.flat(sref) } else { 0 };
        let is_meta = if VM {
            self.compiled.is_meta(flat)
        } else {
            self.meta_set.contains(&sref)
        };
        if is_meta && self.fir.on_meta_access(sref) {
            let node = self.threads[tid].node;
            let name = self.nodes[node].name.to_string();
            let thread = self.threads[tid].name.clone();
            self.emit(
                node,
                thread,
                Level::Error,
                TMPL_NODE_CRASH,
                STMT_RUNTIME,
                &[name],
                None,
                *elapsed,
            );
            self.kill_node(node);
            return Ok(());
        }
        let flow = if VM {
            self.exec_instr(tid, sref, flat, elapsed)?
        } else {
            #[cfg(any(test, feature = "tree-walk-oracle"))]
            {
                self.exec_stmt(tid, sref, elapsed)?
            }
            #[cfg(not(any(test, feature = "tree-walk-oracle")))]
            {
                return Err(SimError::Internal(
                    "tree-walk engine requires the `tree-walk-oracle` feature".into(),
                ));
            }
        };
        // The overwhelmingly common flows are handled right here in the
        // stepping loop; everything that unwinds or searches handler
        // tables goes through `apply_flow`.
        match flow {
            Flow::Next => {
                if let Some(frame) = self.threads[tid].frames.last_mut() {
                    if let Some(c) = frame.cursors.last_mut() {
                        c.idx += 1;
                    }
                }
                Ok(())
            }
            Flow::Stay | Flow::Jump | Flow::Stop => Ok(()),
            flow => self.apply_flow(tid, flow),
        }
    }

    /// Handles a thread with an empty frame stack.
    fn thread_idle(&mut self, tid: ThreadId) -> Result<(), SimError> {
        match self.threads[tid].role {
            Role::Normal => {
                self.threads[tid].status = ThreadStatus::Done;
                Ok(())
            }
            Role::Worker(exec) => {
                let node = self.threads[tid].node;
                match self.nodes[node].execs[exec.index()].queue.pop_front() {
                    Some(task) => {
                        self.threads[tid].current_future = Some(task.future);
                        self.push_entry_frame(tid, task.func, task.args, None)
                    }
                    None => {
                        self.park(tid, BlockReason::IdleWorker, None);
                        Ok(())
                    }
                }
            }
        }
    }

    fn apply_flow(&mut self, tid: ThreadId, flow: Flow) -> Result<(), SimError> {
        match flow {
            Flow::Next => {
                if let Some(frame) = self.threads[tid].frames.last_mut() {
                    if let Some(c) = frame.cursors.last_mut() {
                        c.idx += 1;
                    }
                }
                Ok(())
            }
            Flow::Stay | Flow::Jump | Flow::Stop => Ok(()),
            Flow::Throw(exc) => self.do_throw(tid, exc),
            Flow::Return(v) => self.do_return_walk(tid, v),
            Flow::Break => self.do_loop_ctl(tid, false),
            Flow::Continue => self.do_loop_ctl(tid, true),
        }
    }

    /// Finds the exception of the nearest enclosing handler, searching the
    /// cursor stacks from the innermost frame outward.
    fn current_handler_exc(&self, tid: ThreadId) -> Option<Arc<ExcValue>> {
        for frame in self.threads[tid].frames.iter().rev() {
            for cursor in frame.cursors.iter().rev() {
                if let CursorKind::Handler { exc, .. } = &cursor.kind {
                    return Some(exc.clone());
                }
            }
        }
        None
    }

    fn do_return(&mut self, tid: ThreadId, value: Value) -> Result<(), SimError> {
        let popped = self.threads[tid]
            .frames
            .pop()
            .ok_or_else(|| SimError::Internal("return with no frame".into()))?;
        let ret_to = popped.ret_to;
        self.recycle_frame(popped);
        if self.threads[tid].frames.is_empty() {
            match self.threads[tid].role {
                Role::Normal => self.threads[tid].status = ThreadStatus::Done,
                Role::Worker(_) => {
                    if let Some(fid) = self.threads[tid].current_future.take() {
                        self.complete_future(fid, Ok(value));
                    }
                }
            }
            return Ok(());
        }
        if let Some(var) = ret_to {
            self.write_local(tid, var, value);
        }
        Ok(())
    }

    /// Implements `return`, unwinding through `finally` blocks.
    ///
    /// Handler/finally metadata comes from the compiled try table, so the
    /// walk is shared verbatim by both engines.
    fn do_return_walk(&mut self, tid: ThreadId, value: Value) -> Result<(), SimError> {
        let compiled = self.compiled;
        loop {
            let frame = self.threads[tid]
                .frames
                .last_mut()
                .ok_or_else(|| SimError::Internal("return with no frame".into()))?;
            match frame.cursors.pop() {
                None => return self.do_return(tid, value),
                Some(cursor) => match cursor.kind {
                    CursorKind::TryBody { stmt } | CursorKind::Handler { stmt, .. } => {
                        if let Some(f) = compiled.try_finally(stmt) {
                            frame.cursors.push(Cursor::new(
                                f,
                                CursorKind::Finally {
                                    pending: Pending::Return(value),
                                },
                            ));
                            return Ok(());
                        }
                    }
                    _ => {}
                },
            }
        }
    }

    /// Implements `break` (`continue` when `is_continue`), honouring
    /// `finally` blocks between the statement and the loop.
    fn do_loop_ctl(&mut self, tid: ThreadId, is_continue: bool) -> Result<(), SimError> {
        let compiled = self.compiled;
        loop {
            let frame = self.threads[tid]
                .frames
                .last_mut()
                .ok_or_else(|| SimError::Internal("loop control with no frame".into()))?;
            match frame.cursors.pop() {
                None => {
                    return Err(SimError::Internal(
                        "break/continue outside a loop".to_string(),
                    ))
                }
                Some(cursor) => match cursor.kind {
                    CursorKind::Loop { stmt } => {
                        // The parent cursor still points at the `while`
                        // statement: `continue` leaves it there so the
                        // condition is re-evaluated; `break` advances past
                        // the loop.
                        if let Some(c) = frame.cursors.last_mut() {
                            c.idx = stmt.idx as usize + if is_continue { 0 } else { 1 };
                        }
                        return Ok(());
                    }
                    CursorKind::TryBody { stmt } | CursorKind::Handler { stmt, .. } => {
                        if let Some(f) = compiled.try_finally(stmt) {
                            let pending = if is_continue {
                                Pending::Continue
                            } else {
                                Pending::Break
                            };
                            frame
                                .cursors
                                .push(Cursor::new(f, CursorKind::Finally { pending }));
                            return Ok(());
                        }
                    }
                    _ => {}
                },
            }
        }
    }

    fn do_throw(&mut self, tid: ThreadId, exc: Arc<ExcValue>) -> Result<(), SimError> {
        let compiled = self.compiled;
        loop {
            if self.threads[tid].frames.is_empty() {
                return self.uncaught(tid, exc);
            }
            let fidx = self.threads[tid].frames.len() - 1;
            loop {
                let frame = &mut self.threads[tid].frames[fidx];
                let Some(cursor) = frame.cursors.pop() else {
                    break;
                };
                match cursor.kind {
                    CursorKind::TryBody { stmt } => {
                        let Some(info) = compiled.try_info(stmt) else {
                            return Err(SimError::Internal("TryBody without Try".into()));
                        };
                        if let Some(h) = info.handlers.iter().find(|h| h.pattern.matches(exc.ty)) {
                            if let Some(bind) = h.bind {
                                frame.locals[bind.index()] = Value::Exc(exc.clone());
                            }
                            frame.cursors.push(Cursor::new(
                                h.block,
                                CursorKind::Handler {
                                    stmt,
                                    exc: exc.clone(),
                                },
                            ));
                            return Ok(());
                        }
                        if let Some(f) = info.finally {
                            frame.cursors.push(Cursor::new(
                                f,
                                CursorKind::Finally {
                                    pending: Pending::Exc(exc.clone()),
                                },
                            ));
                            return Ok(());
                        }
                    }
                    CursorKind::Handler { stmt, .. } => {
                        if let Some(f) = compiled.try_finally(stmt) {
                            frame.cursors.push(Cursor::new(
                                f,
                                CursorKind::Finally {
                                    pending: Pending::Exc(exc.clone()),
                                },
                            ));
                            return Ok(());
                        }
                    }
                    _ => {}
                }
            }
            // No handler in this frame.
            if let Some(f) = self.threads[tid].frames.pop() {
                self.recycle_frame(f);
            }
        }
    }

    fn uncaught(&mut self, tid: ThreadId, exc: Arc<ExcValue>) -> Result<(), SimError> {
        match self.threads[tid].role {
            Role::Normal => {
                let node = self.threads[tid].node;
                let thread_name = self.threads[tid].name.clone();
                self.emit(
                    node,
                    thread_name.clone(),
                    Level::Error,
                    TMPL_UNCAUGHT,
                    STMT_RUNTIME,
                    &[exc.render(), thread_name.to_string()],
                    Some(&exc),
                    0,
                );
                self.threads[tid].status = ThreadStatus::Died(exc);
                Ok(())
            }
            Role::Worker(_) => {
                // Executor semantics: the task's exception completes its
                // future; the worker survives and drains the next task.
                if let Some(fid) = self.threads[tid].current_future.take() {
                    self.complete_future(fid, Err(exc));
                }
                Ok(())
            }
        }
    }

    fn block_end(&mut self, tid: ThreadId) -> Result<(), SimError> {
        let compiled = self.compiled;
        let frame = self.threads[tid]
            .frames
            .last_mut()
            .ok_or_else(|| SimError::Internal("block end with no frame".into()))?;
        let cursor = frame
            .cursors
            .pop()
            .ok_or_else(|| SimError::Internal("block end with no cursor".into()))?;
        match cursor.kind {
            CursorKind::Plain => Ok(()),
            CursorKind::Loop { stmt } => {
                // Point the parent cursor back at the `while` statement so
                // the condition is re-evaluated on the next step.
                if let Some(c) = frame.cursors.last_mut() {
                    c.idx = stmt.idx as usize;
                }
                Ok(())
            }
            CursorKind::TryBody { stmt } | CursorKind::Handler { stmt, .. } => {
                if let Some(f) = compiled.try_finally(stmt) {
                    frame.cursors.push(Cursor::new(
                        f,
                        CursorKind::Finally {
                            pending: Pending::None,
                        },
                    ));
                }
                Ok(())
            }
            CursorKind::Finally { pending } => match pending {
                Pending::None => Ok(()),
                Pending::Exc(exc) => self.do_throw(tid, exc),
                Pending::Return(v) => self.do_return_walk(tid, v),
                Pending::Break => self.do_loop_ctl(tid, false),
                Pending::Continue => self.do_loop_ctl(tid, true),
            },
        }
    }

    // ---- locals ----------------------------------------------------------

    /// Clones a local (the tree-walk's variable read; the VM reads locals
    /// by borrow inside `eval_c`).
    #[cfg(any(test, feature = "tree-walk-oracle"))]
    fn read_local(&self, tid: ThreadId, var: VarId) -> Value {
        self.threads[tid]
            .frames
            .last()
            .map(|f| f.locals[var.index()].clone())
            .unwrap_or(Value::Unit)
    }

    fn write_local(&mut self, tid: ThreadId, var: VarId, value: Value) {
        if let Some(f) = self.threads[tid].frames.last_mut() {
            f.locals[var.index()] = value;
        }
    }

    // ---- finalization ------------------------------------------------------

    fn finish(self) -> RunResult {
        let program = self.program;
        let site_occurrences = self.fir.occ_vec();
        let crashed = self.fir.crashed;
        let threads = self
            .threads
            .iter()
            .map(|t| {
                let state = match &t.status {
                    ThreadStatus::Runnable => ThreadEndState::Running,
                    ThreadStatus::Blocked(r) => ThreadEndState::Blocked(r.label()),
                    ThreadStatus::Done => ThreadEndState::Done,
                    ThreadStatus::Died(e) => ThreadEndState::Died(e.render()),
                    ThreadStatus::Killed => ThreadEndState::Killed,
                };
                ThreadSnapshot {
                    node: self.nodes[t.node].name.clone(),
                    thread: t.name.clone(),
                    state,
                    stack: t
                        .frames
                        .iter()
                        .rev()
                        .map(|f| program.funcs[f.func.index()].name.clone())
                        .collect(),
                }
            })
            .collect();
        let nodes = self
            .nodes
            .iter()
            .map(|n| NodeSnapshot {
                name: n.name.clone(),
                alive: n.alive,
                aborted: n.aborted,
                globals: self
                    .compiled
                    .global_names
                    .iter()
                    .zip(&n.globals)
                    .map(|(g, v)| (g.clone(), v.clone()))
                    .collect(),
            })
            .collect();
        RunResult {
            log: self.log,
            trace: self.fir.trace,
            injected: self.fir.injected,
            injected_all: self.fir.injected_all,
            crashed,
            site_occurrences,
            threads,
            nodes,
            end_time: self.clock,
            steps: self.steps,
            injection_requests: self.fir.requests,
            decision_ns: self.fir.decision_ns,
            wall: self.started.elapsed(),
        }
    }
}

/// Statements whose execution touches a meta-info global — CrashTuner's
/// candidate crash points, in deterministic order. (Delegates to the
/// lowering pass, which is the single source of this analysis.)
pub fn meta_access_points(program: &Program) -> Vec<StmtRef> {
    anduril_ir::lower::meta_access_points(program)
}
