//! The tree-walking statement executor — the original interpreter, retained
//! as a differential oracle for the register VM (`exec_vm`).
//!
//! Compiled out of release builds unless the `tree-walk-oracle` feature is
//! enabled. It shares
//! every scheduler/control-flow/FIR path with the VM through the parent
//! module; only statement execution and expression evaluation live here, so
//! any divergence between engines is a bug in exactly one of these two
//! files.

use super::*;
use anduril_ir::builder::TMPL_ABORT;
use anduril_ir::{BinOp, ExceptionType, Expr, Stmt};

impl World<'_> {
    // Matches `exec_instr`: the statement dispatch stays a call so the
    // stepping loop itself stays small and hot.
    #[inline(never)]
    pub(super) fn exec_stmt(
        &mut self,
        tid: ThreadId,
        sref: StmtRef,
        elapsed: &mut u64,
    ) -> Result<Flow, SimError> {
        let program = self.program;
        let stmt = program.stmt(sref);
        let node = self.threads[tid].node;
        match stmt {
            Stmt::Log {
                level,
                template,
                args,
                attach_stack,
            } => {
                let mut rendered = Vec::with_capacity(args.len());
                for a in args {
                    rendered.push(self.eval(tid, a, Some(sref))?.render());
                }
                let exc = if *attach_stack {
                    self.current_handler_exc(tid)
                } else {
                    None
                };
                let thread_name = self.threads[tid].name.clone();
                self.emit(
                    node,
                    thread_name,
                    *level,
                    *template,
                    sref,
                    &rendered,
                    exc.as_deref(),
                    *elapsed,
                );
                Ok(Flow::Next)
            }
            Stmt::Assign { var, expr } => {
                let v = self.eval(tid, expr, Some(sref))?;
                self.write_local(tid, *var, v);
                Ok(Flow::Next)
            }
            Stmt::SetGlobal { global, expr } => {
                let v = self.eval(tid, expr, Some(sref))?;
                self.nodes[node].globals[global.index()] = v;
                Ok(Flow::Next)
            }
            Stmt::PushBack { global, expr } => {
                let v = self.eval(tid, expr, Some(sref))?;
                match &mut self.nodes[node].globals[global.index()] {
                    Value::List(items) => {
                        items.push(v);
                        Ok(Flow::Next)
                    }
                    other => Err(SimError::Type {
                        stmt: Some(sref),
                        msg: format!("PushBack on non-list {other:?}"),
                    }),
                }
            }
            Stmt::PopFront { global, var } => {
                let popped = match &mut self.nodes[node].globals[global.index()] {
                    Value::List(items) => {
                        if items.is_empty() {
                            Value::Unit
                        } else {
                            items.remove(0)
                        }
                    }
                    other => {
                        return Err(SimError::Type {
                            stmt: Some(sref),
                            msg: format!("PopFront on non-list {other:?}"),
                        })
                    }
                };
                self.write_local(tid, *var, popped);
                Ok(Flow::Next)
            }
            Stmt::Call { func, args, ret } => {
                let mut vals = self.take_vals(args.len());
                for a in args {
                    vals.push(self.eval(tid, a, Some(sref))?);
                }
                // Advance past the call before pushing the callee frame.
                if let Some(c) = self.threads[tid]
                    .frames
                    .last_mut()
                    .and_then(|f| f.cursors.last_mut())
                {
                    c.idx += 1;
                }
                self.push_entry_frame(tid, *func, vals, *ret)?;
                Ok(Flow::Jump)
            }
            Stmt::External { site } => {
                let info = &program.sites[site.index()];
                *elapsed += info.latency as u64;
                let stack = self.threads[tid].stack_funcs();
                let time = self.clock + *elapsed;
                let log_pos = self.log.len() as u32;
                match self.fir.on_site(*site, time, log_pos, &stack) {
                    Some(ty) => Ok(Flow::Throw(Arc::new(ExcValue {
                        ty,
                        inner: None,
                        origin_site: Some(*site),
                        injected: true,
                        stack,
                    }))),
                    None => Ok(Flow::Next),
                }
            }
            Stmt::ThrowNew { site } => {
                let info = &program.sites[site.index()];
                let stack = self.threads[tid].stack_funcs();
                let time = self.clock + *elapsed;
                let log_pos = self.log.len() as u32;
                // `throw new` always throws when reached; the FIR call
                // traces the occurrence and records a matching plan
                // candidate as this round's injection.
                let matched = self.fir.on_site(*site, time, log_pos, &stack);
                Ok(Flow::Throw(Arc::new(ExcValue {
                    ty: info.exceptions[0],
                    inner: None,
                    origin_site: Some(*site),
                    injected: matched.is_some(),
                    stack,
                })))
            }
            Stmt::Rethrow => match self.current_handler_exc(tid) {
                Some(exc) => Ok(Flow::Throw(exc)),
                None => Err(SimError::Internal(format!(
                    "Rethrow outside a handler at {sref}"
                ))),
            },
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let taken = self.eval_bool(tid, cond, sref)?;
                if let Some(c) = self.threads[tid]
                    .frames
                    .last_mut()
                    .and_then(|f| f.cursors.last_mut())
                {
                    c.idx += 1;
                }
                let target = if taken { Some(*then_blk) } else { *else_blk };
                if let Some(b) = target {
                    self.threads[tid]
                        .frames
                        .last_mut()
                        .unwrap()
                        .cursors
                        .push(Cursor::new(b, CursorKind::Plain));
                }
                Ok(Flow::Jump)
            }
            Stmt::While { cond, body } => {
                let taken = self.eval_bool(tid, cond, sref)?;
                if taken {
                    self.threads[tid]
                        .frames
                        .last_mut()
                        .unwrap()
                        .cursors
                        .push(Cursor::new(*body, CursorKind::Loop { stmt: sref }));
                    Ok(Flow::Jump)
                } else {
                    Ok(Flow::Next)
                }
            }
            Stmt::Try { body, .. } => {
                if let Some(c) = self.threads[tid]
                    .frames
                    .last_mut()
                    .and_then(|f| f.cursors.last_mut())
                {
                    c.idx += 1;
                }
                self.threads[tid]
                    .frames
                    .last_mut()
                    .unwrap()
                    .cursors
                    .push(Cursor::new(*body, CursorKind::TryBody { stmt: sref }));
                Ok(Flow::Jump)
            }
            Stmt::Return { expr } => {
                let v = match expr {
                    Some(e) => self.eval(tid, e, Some(sref))?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Spawn { name, func, args } => {
                let mut vals = self.take_vals(args.len());
                for a in args {
                    vals.push(self.eval(tid, a, Some(sref))?);
                }
                let name: Arc<str> = Arc::from(name.as_str());
                let child = self.create_thread(node, &name, Role::Normal);
                self.push_entry_frame(child, *func, vals, None)?;
                self.schedule_wake(child, 1, false);
                Ok(Flow::Next)
            }
            Stmt::Submit {
                exec,
                func,
                args,
                future,
            } => {
                let mut vals = self.take_vals(args.len());
                for a in args {
                    vals.push(self.eval(tid, a, Some(sref))?);
                }
                let fid = self.futures.len() as u64;
                self.futures.push(FutureState {
                    done: None,
                    waiters: Vec::new(),
                });
                self.nodes[node].execs[exec.index()].queue.push_back(Task {
                    func: *func,
                    args: vals,
                    future: fid,
                });
                match self.nodes[node].execs[exec.index()].worker {
                    Some(worker) => {
                        if matches!(
                            self.threads[worker].status,
                            ThreadStatus::Blocked(BlockReason::IdleWorker)
                        ) {
                            self.wake_thread(worker, WakeNote::Signaled);
                        }
                    }
                    None => {
                        let name: Arc<str> =
                            Arc::from(format!("{}-worker", program.execs[exec.index()]).as_str());
                        let worker = self.create_thread(node, &name, Role::Worker(*exec));
                        self.nodes[node].execs[exec.index()].worker = Some(worker);
                        self.schedule_wake(worker, 1, false);
                    }
                }
                if let Some(var) = future {
                    self.write_local(tid, *var, Value::Future(fid));
                }
                Ok(Flow::Next)
            }
            Stmt::Await {
                future,
                timeout,
                ret,
            } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                let fid = match self.read_local(tid, *future) {
                    Value::Future(f) => f,
                    other => {
                        return Err(SimError::Type {
                            stmt: Some(sref),
                            msg: format!("Await on non-future {other:?}"),
                        })
                    }
                };
                match self.futures[fid as usize].done.clone() {
                    Some(Ok(v)) => {
                        if let Some(var) = ret {
                            self.write_local(tid, *var, v);
                        }
                        Ok(Flow::Next)
                    }
                    Some(Err(task_exc)) => {
                        let stack = self.threads[tid].stack_funcs();
                        Ok(Flow::Throw(Arc::new(ExcValue {
                            ty: ExceptionType::Execution,
                            inner: Some(Box::new((*task_exc).clone())),
                            origin_site: task_exc.origin_site,
                            injected: task_exc.injected,
                            stack,
                        })))
                    }
                    None => {
                        if note == WakeNote::Expired {
                            let stack = self.threads[tid].stack_funcs();
                            return Ok(Flow::Throw(Arc::new(ExcValue {
                                ty: ExceptionType::Timeout,
                                inner: None,
                                origin_site: None,
                                injected: false,
                                stack,
                            })));
                        }
                        let t = match timeout {
                            Some(e) => Some(self.eval_int(tid, e, sref)? as u64),
                            None => None,
                        };
                        self.park(tid, BlockReason::Future(fid), t);
                        Ok(Flow::Stay)
                    }
                }
            }
            Stmt::Send {
                node: dest,
                chan,
                payload,
            } => {
                let dest_name = match self.eval(tid, dest, Some(sref))? {
                    Value::Str(s) => s,
                    other => {
                        return Err(SimError::Type {
                            stmt: Some(sref),
                            msg: format!("Send destination must be a node name, got {other:?}"),
                        })
                    }
                };
                let dest_idx = *self
                    .node_by_name
                    .get(dest_name.as_ref())
                    .ok_or_else(|| SimError::NoSuchNode(dest_name.to_string()))?;
                let value = self.eval(tid, payload, Some(sref))?;
                let (lo, hi) = self.cfg.net_latency;
                let latency = if hi > lo {
                    self.rng.random_range(lo..hi)
                } else {
                    lo
                };
                self.schedule(
                    latency,
                    EventKind::Deliver {
                        node: dest_idx,
                        chan: *chan,
                        payload: value,
                    },
                );
                Ok(Flow::Next)
            }
            Stmt::Recv { chan, var, timeout } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                if let Some(v) = self.nodes[node].chans[chan.index()].pop_front() {
                    self.write_local(tid, *var, v);
                    return Ok(Flow::Next);
                }
                if note == WakeNote::Expired {
                    let stack = self.threads[tid].stack_funcs();
                    return Ok(Flow::Throw(Arc::new(ExcValue {
                        ty: ExceptionType::Timeout,
                        inner: None,
                        origin_site: None,
                        injected: false,
                        stack,
                    })));
                }
                let t = match timeout {
                    Some(e) => Some(self.eval_int(tid, e, sref)? as u64),
                    None => None,
                };
                self.park(tid, BlockReason::Chan(*chan), t);
                Ok(Flow::Stay)
            }
            Stmt::WaitCond { cond, timeout, ok } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                match note {
                    WakeNote::Signaled => {
                        if let Some(var) = ok {
                            self.write_local(tid, *var, Value::Bool(true));
                        }
                        Ok(Flow::Next)
                    }
                    WakeNote::Expired => {
                        if let Some(var) = ok {
                            self.write_local(tid, *var, Value::Bool(false));
                        }
                        Ok(Flow::Next)
                    }
                    WakeNote::None => {
                        let t = match timeout {
                            Some(e) => Some(self.eval_int(tid, e, sref)? as u64),
                            None => None,
                        };
                        self.park(tid, BlockReason::Cond(*cond), t);
                        Ok(Flow::Stay)
                    }
                }
            }
            Stmt::SignalCond { cond } => {
                let waiters = std::mem::take(&mut self.nodes[node].cond_waiters[cond.index()]);
                for w in waiters {
                    self.wake_thread(w, WakeNote::Signaled);
                }
                Ok(Flow::Next)
            }
            Stmt::Sleep { ticks } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                if note == WakeNote::Expired {
                    Ok(Flow::Next)
                } else {
                    let t = self.eval_int(tid, ticks, sref)? as u64;
                    self.park(tid, BlockReason::Sleep, Some(t));
                    Ok(Flow::Stay)
                }
            }
            Stmt::Abort { reason } => {
                let node_name = self.nodes[node].name.to_string();
                let thread_name = self.threads[tid].name.clone();
                self.emit(
                    node,
                    thread_name,
                    Level::Error,
                    TMPL_ABORT,
                    STMT_RUNTIME,
                    &[node_name, reason.clone()],
                    None,
                    *elapsed,
                );
                self.nodes[node].aborted = true;
                self.kill_node(node);
                Ok(Flow::Stop)
            }
            Stmt::Halt => {
                self.threads[tid].frames.clear();
                match self.threads[tid].role {
                    Role::Normal => {
                        self.threads[tid].status = ThreadStatus::Done;
                        Ok(Flow::Stop)
                    }
                    Role::Worker(_) => Ok(Flow::Jump),
                }
            }
        }
    }

    /// Borrow-based fast path for side-effect-free expressions: resolves
    /// `Const`/`Var`/`Global` and index chains over them to a reference
    /// without cloning. Returns `None` for anything else (or an index miss),
    /// in which case the caller falls back to [`World::eval`], which
    /// reproduces the exact error.
    fn eval_ref<'a>(&'a self, tid: ThreadId, e: &'a Expr) -> Option<&'a Value> {
        match e {
            Expr::Const(v) => Some(v),
            Expr::Var(v) => self.threads[tid]
                .frames
                .last()
                .map(|f| &f.locals[v.index()]),
            Expr::Global(g) => {
                let node = self.threads[tid].node;
                Some(&self.nodes[node].globals[g.index()])
            }
            Expr::Index(a, i) => match self.eval_ref(tid, a)? {
                Value::List(items) => items.get(*i as usize),
                _ => None,
            },
            _ => None,
        }
    }

    fn eval(&mut self, tid: ThreadId, e: &Expr, at: Option<StmtRef>) -> Result<Value, SimError> {
        let node = self.threads[tid].node;
        match e {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(v) => Ok(self.read_local(tid, *v)),
            Expr::Global(g) => Ok(self.nodes[node].globals[g.index()].clone()),
            Expr::Not(a) => {
                let v = self.eval(tid, a, at)?;
                match v.as_bool() {
                    Some(b) => Ok(Value::Bool(!b)),
                    None => Err(SimError::Type {
                        stmt: at,
                        msg: format!("! on non-bool {v:?}"),
                    }),
                }
            }
            Expr::Len(a) => {
                let v = self.eval(tid, a, at)?;
                v.len().map(Value::Int).ok_or(SimError::Type {
                    stmt: at,
                    msg: format!("len on {v:?}"),
                })
            }
            Expr::List(items) => {
                let mut vs = Vec::with_capacity(items.len());
                for i in items {
                    vs.push(self.eval(tid, i, at)?);
                }
                Ok(Value::List(vs))
            }
            Expr::Index(a, i) => {
                // Fast path: index the list in place, cloning only the
                // element instead of the whole list.
                if let Some(base) = self.eval_ref(tid, a) {
                    return match base {
                        Value::List(items) => {
                            items.get(*i as usize).cloned().ok_or(SimError::Type {
                                stmt: at,
                                msg: format!("index {i} out of bounds ({} items)", items.len()),
                            })
                        }
                        other => Err(SimError::Type {
                            stmt: at,
                            msg: format!("index on non-list {other:?}"),
                        }),
                    };
                }
                let v = self.eval(tid, a, at)?;
                match v {
                    Value::List(items) => items.get(*i as usize).cloned().ok_or(SimError::Type {
                        stmt: at,
                        msg: format!("index {i} out of bounds ({} items)", items.len()),
                    }),
                    other => Err(SimError::Type {
                        stmt: at,
                        msg: format!("index on non-list {other:?}"),
                    }),
                }
            }
            Expr::RandRange(lo, hi) => {
                if hi > lo {
                    Ok(Value::Int(self.rng.random_range(*lo..*hi)))
                } else {
                    Ok(Value::Int(*lo))
                }
            }
            Expr::SelfNode => Ok(Value::Str(self.nodes[node].name.clone())),
            Expr::Bin(op, a, b) => {
                // Short-circuit booleans first.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let av = self.eval_bool_v(tid, a, at)?;
                    return match (op, av) {
                        (BinOp::And, false) => Ok(Value::Bool(false)),
                        (BinOp::Or, true) => Ok(Value::Bool(true)),
                        _ => Ok(Value::Bool(self.eval_bool_v(tid, b, at)?)),
                    };
                }
                // Fast path for comparisons: when both operands resolve by
                // reference (no side effects possible), compare without
                // cloning either value.
                if matches!(op, BinOp::Eq | BinOp::Ne) {
                    if let (Some(x), Some(y)) = (self.eval_ref(tid, a), self.eval_ref(tid, b)) {
                        let eq = x == y;
                        return Ok(Value::Bool(if matches!(op, BinOp::Eq) { eq } else { !eq }));
                    }
                }
                let av = self.eval(tid, a, at)?;
                let bv = self.eval(tid, b, at)?;
                match op {
                    BinOp::Eq => Ok(Value::Bool(av == bv)),
                    BinOp::Ne => Ok(Value::Bool(av != bv)),
                    _ => {
                        let (x, y) = match (av.as_int(), bv.as_int()) {
                            (Some(x), Some(y)) => (x, y),
                            _ => {
                                return Err(SimError::Type {
                                    stmt: at,
                                    msg: format!("{op:?} on non-ints"),
                                })
                            }
                        };
                        Ok(match op {
                            BinOp::Add => Value::Int(x.wrapping_add(y)),
                            BinOp::Sub => Value::Int(x.wrapping_sub(y)),
                            BinOp::Mul => Value::Int(x.wrapping_mul(y)),
                            BinOp::Rem => {
                                if y == 0 {
                                    return Err(SimError::Type {
                                        stmt: at,
                                        msg: "remainder by zero".into(),
                                    });
                                }
                                Value::Int(x.wrapping_rem(y))
                            }
                            BinOp::Lt => Value::Bool(x < y),
                            BinOp::Le => Value::Bool(x <= y),
                            BinOp::Gt => Value::Bool(x > y),
                            BinOp::Ge => Value::Bool(x >= y),
                            BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or => unreachable!(),
                        })
                    }
                }
            }
        }
    }

    fn eval_bool_v(
        &mut self,
        tid: ThreadId,
        e: &Expr,
        at: Option<StmtRef>,
    ) -> Result<bool, SimError> {
        // Fast path: read the condition by reference (no clone).
        if let Some(v) = self.eval_ref(tid, e) {
            return v.as_bool().ok_or_else(|| SimError::Type {
                stmt: at,
                msg: format!("expected bool, got {v:?}"),
            });
        }
        let v = self.eval(tid, e, at)?;
        v.as_bool().ok_or(SimError::Type {
            stmt: at,
            msg: format!("expected bool, got {v:?}"),
        })
    }

    fn eval_bool(&mut self, tid: ThreadId, e: &Expr, at: StmtRef) -> Result<bool, SimError> {
        self.eval_bool_v(tid, e, Some(at))
    }

    fn eval_int(&mut self, tid: ThreadId, e: &Expr, at: StmtRef) -> Result<i64, SimError> {
        let v = self.eval(tid, e, Some(at))?;
        v.as_int().ok_or(SimError::Type {
            stmt: Some(at),
            msg: format!("expected int, got {v:?}"),
        })
    }
}
