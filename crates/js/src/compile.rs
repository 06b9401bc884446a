//! AST → bytecode compiler.
//!
//! Compiles the parsed statement list into a flat [`Module`]: one
//! [`Chunk`] of instructions per function (chunk 0 is the top-level
//! program), a shared string constant pool, and pre-resolved local
//! slots for function scopes. The instruction stream is executed by
//! [`crate::vm::Vm`]; the tree-walking interpreter in
//! [`crate::interp`] remains the semantic oracle, and the compiler's
//! contract is *bit-identical observable behaviour* — same values,
//! same thrown [`crate::JsError`]s, same host-call order, and the same
//! step-budget exhaustion point.
//!
//! To pin the exhaustion point, a [`Insn::Tick`] is emitted exactly
//! where the interpreter ticks: once at the head of every compiled
//! statement (`Interp::exec` ticks before matching) and once at the
//! head of every compiled expression (`Interp::eval` likewise).
//! Hoisting emits no ticks, mirroring `Interp::hoist`.
//!
//! Compilation itself is infallible: the only per-node failure in the
//! interpreter (`invalid assignment target`) is compiled to a
//! [`Insn::ThrowConst`] carrying the pre-formatted message, so it
//! still surfaces at runtime in exactly the interpreter's order
//! (after the right-hand side has been evaluated).
//!
//! Modules are immutable and `Send + Sync` (the pool holds plain
//! strings; numbers are inlined into [`Insn::PushNum`]), so one
//! compiled payload can be shared across scan worker threads through
//! the module cache — campaign pages that embed the same packed
//! payload compile once and execute many times.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::ast::{BinOp, Expr, Stmt, UnOp};

/// FNV-1a 64-bit hash of a script source, used as the module-cache key
/// (local copy: `slum-js` sits below `slum-detect` in the crate DAG).
pub fn source_hash(src: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in src.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Shared store of compiled modules keyed by source hash.
///
/// `slum-js` defines only the interface; the concrete implementation
/// (`slum_detect::JsModuleCache`, an `RwLock`ed map) lives higher in
/// the crate DAG and is injected through the browser into the sandbox.
pub trait ModuleStore: Send + Sync + std::fmt::Debug {
    /// The cached module for `key`, if present.
    fn get(&self, key: u64) -> Option<Arc<Module>>;

    /// Returns the module for `key`, compiling and caching it on a
    /// miss (first insert wins under races).
    fn get_or_compile(
        &self,
        key: u64,
        compile: &mut dyn FnMut() -> Arc<Module>,
    ) -> Arc<Module>;
}

/// Which errors a [`Insn::PushHandler`] intercepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerKind {
    /// `try`/`catch`: everything except budget exhaustion.
    Catch,
    /// `typeof`: everything, including budget exhaustion (the next
    /// tick re-raises it).
    TypeOf,
}

/// One bytecode instruction. Jump targets are absolute instruction
/// indices within the owning chunk; `u32` operands index the module's
/// constant pool or chunk table unless noted otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Insn {
    /// Consume one step of the budget (interpreter tick parity).
    Tick,
    /// Push a number literal.
    PushNum(f64),
    /// Push a string literal from the constant pool.
    PushStr(u32),
    /// Push a boolean literal.
    PushBool(bool),
    /// Push `null`.
    PushNull,
    /// Push `undefined`.
    PushUndefined,
    /// Discard the top of the stack.
    Pop,
    /// Duplicate the top of the stack.
    Dup,
    /// Push the value bound to a name, walking the scope chain.
    LoadName(u32),
    /// Fast path for a pre-resolved function local: read the slot,
    /// falling back to the named chain walk while undeclared.
    LoadSlot {
        /// Slot index in the activation scope.
        slot: u32,
        /// Constant-pool index of the name (fallback + error message).
        name: u32,
    },
    /// Pop a value and assign it to a name (`Env::assign` semantics:
    /// nearest binding, else create a global).
    StoreName(u32),
    /// Fast path for assigning a pre-resolved function local.
    StoreSlot {
        /// Slot index in the activation scope.
        slot: u32,
        /// Constant-pool index of the name (fallback path).
        name: u32,
    },
    /// Pop a value and declare it in the current scope.
    DeclareName(u32),
    /// Hoist a function declaration: close chunk `0` over the current
    /// scope and declare it under the chunk's name (no tick).
    DeclareFn(u32),
    /// Push a closure over chunk `0` and the current scope.
    MakeClosure(u32),
    /// Pop a base object, push the named property.
    GetMember(u32),
    /// Pop an index then a base object, push the property named by the
    /// index's string coercion.
    GetIndex,
    /// Pop a base object; push the base (as `this`) then the named
    /// property — method-call receiver setup.
    GetMethod(u32),
    /// Pop an index then a base; push the base then the indexed
    /// property.
    GetMethodIndex,
    /// Pop a base object then a value, write the named property.
    SetMember(u32),
    /// Pop an index, a base object, then a value; write the indexed
    /// property.
    SetIndex,
    /// Pop a value and insert it under a literal key into the object
    /// remaining on top of the stack (object-literal construction; no
    /// host notification, matching the interpreter).
    ObjInsert(u32),
    /// Pop `0` values and push them as a new array object.
    MakeArray(u32),
    /// Push a fresh empty object.
    MakeObject,
    /// Pop the right then left operand, push the operator result.
    /// Never `And`/`Or` (compiled to jumps).
    Binary(BinOp),
    /// Pop a value, push the unary result. Never `TypeOf` (compiled to
    /// a handler region).
    Unary(UnOp),
    /// Pop a value, push its `typeof` string.
    TypeOfValue,
    /// Pop a value, push its numeric coercion.
    ToNumber,
    /// Pop a number, push it plus the constant (postfix `++`/`--`).
    AddConst(f64),
    /// Call: stack holds `this`, the callee, then `0` arguments.
    Call(u32),
    /// `new`: stack holds the constructor then `0` arguments.
    New(u32),
    /// Unconditional jump.
    Jump(u32),
    /// Pop a value; jump when falsy.
    JumpIfFalsy(u32),
    /// Pop a value; jump when truthy.
    JumpIfTruthy(u32),
    /// Peek the top value; jump when falsy, keeping it (for `&&`).
    JumpIfFalsyKeep(u32),
    /// Peek the top value; jump when truthy, keeping it (for `||`).
    JumpIfTruthyKeep(u32),
    /// Enter a child scope.
    PushScope,
    /// Leave the innermost scope.
    PopScope,
    /// Register an error handler jumping to `target` with the current
    /// stack/scope/iterator depths.
    PushHandler {
        /// What the handler intercepts.
        kind: HandlerKind,
        /// Jump target on an intercepted error.
        target: u32,
    },
    /// Drop the innermost handler (normal exit from its region).
    PopHandler,
    /// Pop a value and push its `for..in` key snapshot onto the
    /// iterator stack.
    MakeIter,
    /// Advance the innermost iterator: declare the next key under the
    /// named loop variable, or jump to `end` when exhausted.
    IterNext {
        /// Constant-pool index of the loop variable name.
        name: u32,
        /// Jump target once the keys run out.
        end: u32,
    },
    /// Drop the innermost iterator.
    PopIter,
    /// Pop the return value and leave the chunk.
    Return,
    /// Leave the chunk with `undefined` (top-level completion, or a
    /// stray `break`/`continue` halting the program like the
    /// interpreter's run loop does).
    Halt,
    /// Raise `JsError::Runtime` with a pre-formatted pool message
    /// (invalid assignment targets, formatted at compile time).
    ThrowConst(u32),
}

/// One compiled function body (or the top-level program, chunk 0).
#[derive(Debug)]
pub struct Chunk {
    /// Function name, if any (`None` for the program chunk and
    /// anonymous function expressions).
    pub name: Option<String>,
    /// Parameter names in declaration order.
    pub params: Vec<String>,
    /// Pre-resolved name→slot mapping for the activation scope
    /// (`None` for the program chunk, which runs in the caller's
    /// scope).
    pub slot_map: Option<Arc<HashMap<String, u32>>>,
    /// Number of slots an activation of this chunk needs.
    pub n_slots: u32,
    /// The instruction stream.
    pub code: Vec<Insn>,
    /// True for function chunks (affects calling convention only).
    pub is_function: bool,
}

/// A compiled script: chunks, constant pool, and provenance.
#[derive(Debug)]
pub struct Module {
    /// Compiled chunks; index 0 is the top-level program (or the
    /// function itself for [`compile_function`] modules).
    pub chunks: Vec<Chunk>,
    /// String constant pool (names, literals, error messages).
    pub consts: Vec<String>,
    /// FNV-1a hash of the source this module was compiled from.
    pub source_hash: u64,
    /// Wall-clock nanoseconds compilation took (for `js.vm.*`
    /// metrics; excluded from determinism guarantees like every other
    /// timing figure).
    pub compile_nanos: u64,
}

/// Compiles a parsed program into a shareable module.
pub fn compile_program(stmts: &[Stmt], source_hash: u64) -> Arc<Module> {
    let started = Instant::now();
    let mut shared = Shared::default();
    compile_chunk(&mut shared, ChunkKind::Program, stmts);
    Arc::new(Module {
        chunks: shared.chunks,
        consts: shared.consts,
        source_hash,
        compile_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    })
}

/// Compiles a single function body into a module whose chunk 0 is the
/// function itself. Fallback used when the VM is handed a closure the
/// tree-walking interpreter built (no [`crate::value::FnDef::code`]).
pub fn compile_function(name: Option<&str>, params: &[String], body: &[Stmt]) -> Arc<Module> {
    let started = Instant::now();
    let mut shared = Shared::default();
    compile_chunk(&mut shared, ChunkKind::Function { name, params }, body);
    Arc::new(Module {
        chunks: shared.chunks,
        consts: shared.consts,
        source_hash: 0,
        compile_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    })
}

/// Module-wide compiler state: finished chunks plus the interned
/// constant pool.
#[derive(Default)]
struct Shared {
    chunks: Vec<Chunk>,
    consts: Vec<String>,
    const_ids: HashMap<String, u32>,
}

impl Shared {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.const_ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.consts.len()).expect("constant pool overflow");
        self.consts.push(s.to_string());
        self.const_ids.insert(s.to_string(), id);
        id
    }
}

/// What kind of chunk is being compiled.
enum ChunkKind<'a> {
    /// Top-level program (also `eval` layers): runs in the caller's
    /// scope, any `break`/`continue`/`return` flow halts it.
    Program,
    /// Function body: fresh slotted activation scope; top-level
    /// `break`/`continue` are swallowed per statement, mirroring
    /// `Interp::call_function`.
    Function {
        name: Option<&'a str>,
        params: &'a [String],
    },
}

/// A `break`/`continue` resolution point, with the scope/iterator/
/// handler depths live at the jump target so the compiler can emit the
/// right unwind sequence.
#[derive(Clone, Copy)]
struct Target {
    label: u32,
    scopes: u32,
    iters: u32,
    handlers: u32,
}

/// One enclosing control context, innermost last.
enum FlowCtx {
    /// A `while`/`for`/`do`/`for..in` loop.
    Loop { break_to: Target, continue_to: Target },
    /// A `switch` arm region: catches `break` (exit the switch).
    Switch { break_to: Target },
    /// A statement boundary that *swallows* flow signals: function
    /// top-level statements (both `break` and `continue`), `switch`
    /// arm statements and `for` initializers (`continue` — and for the
    /// latter two, whatever the matching interpreter loop ignores).
    Swallow { to: Target, catches_break: bool },
}

/// Per-chunk compiler: instruction buffer, label table, and
/// compile-time depth tracking.
struct ChunkCompiler {
    code: Vec<Insn>,
    labels: Vec<u32>,
    flow: Vec<FlowCtx>,
    scope_depth: u32,
    iter_depth: u32,
    handler_depth: u32,
    slot_map: Option<Arc<HashMap<String, u32>>>,
}

/// Collects the pre-resolved slot set of a function scope: parameters,
/// `this`, `arguments`, and the body's *top-level* `var` and function
/// declaration names (nested blocks declare into their own scopes, so
/// only depth-0 names are safe to resolve statically).
fn function_slots(params: &[String], body: &[Stmt]) -> (Arc<HashMap<String, u32>>, u32) {
    let mut map: HashMap<String, u32> = HashMap::new();
    let add = |map: &mut HashMap<String, u32>, name: &str| {
        if !map.contains_key(name) {
            let id = u32::try_from(map.len()).expect("slot overflow");
            map.insert(name.to_string(), id);
        }
    };
    for p in params {
        add(&mut map, p);
    }
    add(&mut map, "this");
    add(&mut map, "arguments");
    for stmt in body {
        match stmt {
            Stmt::Var(decls) => {
                for (name, _) in decls {
                    add(&mut map, name);
                }
            }
            Stmt::Function { name, .. } => add(&mut map, name),
            _ => {}
        }
    }
    let n = u32::try_from(map.len()).expect("slot overflow");
    (Arc::new(map), n)
}

/// Compiles one chunk, appending it (and any nested function chunks)
/// to `shared`; returns its index.
fn compile_chunk(shared: &mut Shared, kind: ChunkKind<'_>, stmts: &[Stmt]) -> u32 {
    let idx = u32::try_from(shared.chunks.len()).expect("chunk overflow");
    // Reserve the slot so nested chunks index past it.
    shared.chunks.push(Chunk {
        name: None,
        params: Vec::new(),
        slot_map: None,
        n_slots: 0,
        code: Vec::new(),
        is_function: false,
    });
    let (name, params, slot_map, n_slots, is_function) = match kind {
        ChunkKind::Program => (None, Vec::new(), None, 0, false),
        ChunkKind::Function { name, params } => {
            let (map, n) = function_slots(params, stmts);
            (name.map(str::to_string), params.to_vec(), Some(map), n, true)
        }
    };
    let mut c = ChunkCompiler {
        code: Vec::new(),
        labels: Vec::new(),
        flow: Vec::new(),
        scope_depth: 0,
        iter_depth: 0,
        handler_depth: 0,
        slot_map: slot_map.clone(),
    };
    c.hoist(shared, stmts);
    if is_function {
        // Each top-level statement is a swallow boundary: the
        // interpreter's call loop ignores Break/Continue between
        // statements and keeps going.
        for stmt in stmts {
            let next = c.label();
            c.flow.push(FlowCtx::Swallow {
                to: Target { label: next, scopes: 0, iters: 0, handlers: 0 },
                catches_break: true,
            });
            c.stmt(shared, stmt);
            c.flow.pop();
            c.bind(next);
        }
        c.emit(Insn::PushUndefined);
        c.emit(Insn::Return);
    } else {
        // Program chunk: any flow signal halts the run loop, so
        // Break/Continue compile to Halt and Return pops its value.
        for stmt in stmts {
            c.stmt(shared, stmt);
        }
        c.emit(Insn::Halt);
    }
    let code = c.finalize();
    shared.chunks[idx as usize] =
        Chunk { name, params, slot_map, n_slots, code, is_function };
    idx
}

impl ChunkCompiler {
    fn emit(&mut self, insn: Insn) {
        self.code.push(insn);
    }

    fn label(&mut self) -> u32 {
        let id = u32::try_from(self.labels.len()).expect("label overflow");
        self.labels.push(u32::MAX);
        id
    }

    fn bind(&mut self, label: u32) {
        self.labels[label as usize] =
            u32::try_from(self.code.len()).expect("chunk too long");
    }

    fn here(&self) -> Target {
        Target {
            label: 0, // overwritten by callers
            scopes: self.scope_depth,
            iters: self.iter_depth,
            handlers: self.handler_depth,
        }
    }

    /// Emits the handler/iterator/scope pops needed to reach `t` from
    /// the current depths, then the jump itself.
    fn unwind_jump(&mut self, t: Target) {
        for _ in t.handlers..self.handler_depth {
            self.emit(Insn::PopHandler);
        }
        for _ in t.iters..self.iter_depth {
            self.emit(Insn::PopIter);
        }
        for _ in t.scopes..self.scope_depth {
            self.emit(Insn::PopScope);
        }
        self.emit(Insn::Jump(t.label));
    }

    /// Resolves a `break`: nearest loop, switch, or break-swallowing
    /// boundary; none in a program chunk means "halt the program".
    fn compile_break(&mut self) {
        for i in (0..self.flow.len()).rev() {
            let t = match &self.flow[i] {
                FlowCtx::Loop { break_to, .. } => Some(*break_to),
                FlowCtx::Switch { break_to } => Some(*break_to),
                FlowCtx::Swallow { to, catches_break: true } => Some(*to),
                FlowCtx::Swallow { .. } => None,
            };
            if let Some(t) = t {
                self.unwind_jump(t);
                return;
            }
        }
        self.emit(Insn::Halt);
    }

    /// Resolves a `continue`: nearest loop or swallow boundary (switch
    /// arms swallow `continue` — the interpreter's arm loop treats it
    /// as `Normal` and moves to the next statement).
    fn compile_continue(&mut self) {
        for i in (0..self.flow.len()).rev() {
            let t = match &self.flow[i] {
                FlowCtx::Loop { continue_to, .. } => Some(*continue_to),
                FlowCtx::Swallow { to, .. } => Some(*to),
                FlowCtx::Switch { .. } => None,
            };
            if let Some(t) = t {
                self.unwind_jump(t);
                return;
            }
        }
        self.emit(Insn::Halt);
    }

    /// Emits `DeclareFn` for every function declaration in `body`
    /// (interpreter hoisting; no ticks).
    fn hoist(&mut self, shared: &mut Shared, body: &[Stmt]) {
        for stmt in body {
            if let Stmt::Function { name, params, body } = stmt {
                let chunk =
                    compile_chunk(shared, ChunkKind::Function { name: Some(name), params }, body);
                self.emit(Insn::DeclareFn(chunk));
            }
        }
    }

    /// Compiles a braced block: child scope, hoist, statements.
    fn block(&mut self, shared: &mut Shared, body: &[Stmt]) {
        self.emit(Insn::PushScope);
        self.scope_depth += 1;
        self.hoist(shared, body);
        for stmt in body {
            self.stmt(shared, stmt);
        }
        self.emit(Insn::PopScope);
        self.scope_depth -= 1;
    }

    fn stmt(&mut self, shared: &mut Shared, stmt: &Stmt) {
        self.emit(Insn::Tick);
        match stmt {
            Stmt::Empty | Stmt::Function { .. } => {}
            Stmt::Expr(e) => {
                self.expr(shared, e);
                self.emit(Insn::Pop);
            }
            Stmt::Var(decls) => {
                for (name, init) in decls {
                    match init {
                        Some(e) => self.expr(shared, e),
                        None => self.emit(Insn::PushUndefined),
                    }
                    let c = shared.intern(name);
                    self.emit(Insn::DeclareName(c));
                }
            }
            Stmt::If(cond, then, els) => {
                self.expr(shared, cond);
                let l_else = self.label();
                self.emit(Insn::JumpIfFalsy(l_else));
                self.block(shared, then);
                match els {
                    Some(e) => {
                        let l_end = self.label();
                        self.emit(Insn::Jump(l_end));
                        self.bind(l_else);
                        self.block(shared, e);
                        self.bind(l_end);
                    }
                    None => self.bind(l_else),
                }
            }
            Stmt::While(cond, body) => {
                let l_cond = self.label();
                let l_end = self.label();
                self.bind(l_cond);
                self.expr(shared, cond);
                self.emit(Insn::JumpIfFalsy(l_end));
                self.flow.push(FlowCtx::Loop {
                    break_to: Target { label: l_end, ..self.here() },
                    continue_to: Target { label: l_cond, ..self.here() },
                });
                self.block(shared, body);
                self.flow.pop();
                self.emit(Insn::Jump(l_cond));
                self.bind(l_end);
            }
            Stmt::For { init, cond, update, body } => {
                self.emit(Insn::PushScope);
                self.scope_depth += 1;
                if let Some(i) = init {
                    // The interpreter discards the initializer's flow
                    // signal entirely: swallow both break and continue
                    // to the post-initializer point.
                    let after = self.label();
                    self.flow.push(FlowCtx::Swallow {
                        to: Target { label: after, ..self.here() },
                        catches_break: true,
                    });
                    self.stmt(shared, i);
                    self.flow.pop();
                    self.bind(after);
                }
                let l_cond = self.label();
                let l_cont = self.label();
                let l_end = self.label();
                self.bind(l_cond);
                if let Some(c) = cond {
                    self.expr(shared, c);
                    self.emit(Insn::JumpIfFalsy(l_end));
                }
                self.flow.push(FlowCtx::Loop {
                    break_to: Target { label: l_end, ..self.here() },
                    continue_to: Target { label: l_cont, ..self.here() },
                });
                self.block(shared, body);
                self.flow.pop();
                self.bind(l_cont);
                if let Some(u) = update {
                    self.expr(shared, u);
                    self.emit(Insn::Pop);
                }
                self.emit(Insn::Jump(l_cond));
                self.bind(l_end);
                self.emit(Insn::PopScope);
                self.scope_depth -= 1;
            }
            Stmt::DoWhile(body, cond) => {
                let l_top = self.label();
                let l_cont = self.label();
                let l_end = self.label();
                self.bind(l_top);
                self.flow.push(FlowCtx::Loop {
                    break_to: Target { label: l_end, ..self.here() },
                    continue_to: Target { label: l_cont, ..self.here() },
                });
                self.block(shared, body);
                self.flow.pop();
                self.bind(l_cont);
                self.expr(shared, cond);
                self.emit(Insn::JumpIfTruthy(l_top));
                self.bind(l_end);
            }
            Stmt::ForIn { var, object, body } => {
                self.expr(shared, object);
                self.emit(Insn::MakeIter);
                self.iter_depth += 1;
                self.emit(Insn::PushScope);
                self.scope_depth += 1;
                let l_next = self.label();
                let l_end = self.label();
                self.bind(l_next);
                let name = shared.intern(var);
                self.emit(Insn::IterNext { name, end: l_end });
                self.flow.push(FlowCtx::Loop {
                    break_to: Target { label: l_end, ..self.here() },
                    continue_to: Target { label: l_next, ..self.here() },
                });
                self.block(shared, body);
                self.flow.pop();
                self.emit(Insn::Jump(l_next));
                self.bind(l_end);
                self.emit(Insn::PopScope);
                self.scope_depth -= 1;
                self.emit(Insn::PopIter);
                self.iter_depth -= 1;
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => self.expr(shared, e),
                    None => self.emit(Insn::PushUndefined),
                }
                self.emit(Insn::Return);
            }
            Stmt::Block(body) => self.block(shared, body),
            Stmt::Break => self.compile_break(),
            Stmt::Continue => self.compile_continue(),
            Stmt::TryCatch(body, param, handler) => {
                let l_catch = self.label();
                let l_end = self.label();
                self.emit(Insn::PushHandler { kind: HandlerKind::Catch, target: l_catch });
                self.handler_depth += 1;
                // Interpreter nests two scopes around the try body: an
                // outer child plus exec_block's own.
                self.emit(Insn::PushScope);
                self.scope_depth += 1;
                self.block(shared, body);
                self.emit(Insn::PopScope);
                self.scope_depth -= 1;
                self.emit(Insn::PopHandler);
                self.handler_depth -= 1;
                self.emit(Insn::Jump(l_end));
                // Handler entry: the dispatcher restored depths to the
                // PushHandler point and pushed Str(err).
                self.bind(l_catch);
                self.emit(Insn::PushScope);
                self.scope_depth += 1;
                let c = shared.intern(param);
                self.emit(Insn::DeclareName(c));
                self.block(shared, handler);
                self.emit(Insn::PopScope);
                self.scope_depth -= 1;
                self.bind(l_end);
            }
            Stmt::Switch { disc, cases, default } => {
                self.expr(shared, disc);
                // Tests run lazily in the *outer* scope against a
                // dup of the discriminant; the shared arm scope is
                // entered only on the way into a body.
                let found: Vec<u32> = cases.iter().map(|_| self.label()).collect();
                let no_match = self.label();
                for (i, (test, _)) in cases.iter().enumerate() {
                    self.emit(Insn::Dup);
                    self.expr(shared, test);
                    self.emit(Insn::Binary(BinOp::StrictEq));
                    self.emit(Insn::JumpIfTruthy(found[i]));
                }
                self.emit(Insn::Jump(no_match));
                let bodies: Vec<u32> = cases.iter().map(|_| self.label()).collect();
                let l_default = self.label();
                let l_exit = self.label();
                for (i, entry) in found.iter().enumerate() {
                    self.bind(*entry);
                    self.emit(Insn::Pop);
                    self.emit(Insn::PushScope);
                    self.emit(Insn::Jump(bodies[i]));
                }
                self.bind(no_match);
                self.emit(Insn::Pop);
                self.emit(Insn::PushScope);
                self.emit(Insn::Jump(if default.is_some() { l_default } else { l_exit }));
                // Arm bodies share one scope and fall through.
                self.scope_depth += 1;
                self.flow.push(FlowCtx::Switch {
                    break_to: Target { label: l_exit, ..self.here() },
                });
                for (i, (_, body)) in cases.iter().enumerate() {
                    self.bind(bodies[i]);
                    self.switch_arm(shared, body);
                }
                if let Some(body) = default {
                    self.bind(l_default);
                    self.switch_arm(shared, body);
                }
                self.flow.pop();
                self.bind(l_exit);
                self.emit(Insn::PopScope);
                self.scope_depth -= 1;
            }
        }
    }

    /// Compiles one switch arm: statements run directly in the shared
    /// arm scope (no block scope, no hoisting), and each statement is a
    /// `continue`-swallowing boundary — the interpreter's arm loop
    /// treats `Continue` like `Normal` and proceeds to the next
    /// statement.
    fn switch_arm(&mut self, shared: &mut Shared, body: &[Stmt]) {
        for stmt in body {
            let next = self.label();
            self.flow.push(FlowCtx::Swallow {
                to: Target { label: next, ..self.here() },
                catches_break: false,
            });
            self.stmt(shared, stmt);
            self.flow.pop();
            self.bind(next);
        }
    }

    /// True when `name` resolves to an activation slot from the
    /// current position (only at function scope depth 0 — inside any
    /// nested scope a dynamic declaration could shadow it).
    fn slot_for(&self, name: &str) -> Option<u32> {
        if self.scope_depth != 0 {
            return None;
        }
        self.slot_map.as_ref().and_then(|m| m.get(name)).copied()
    }

    /// Emits a name load (slot fast path when statically safe).
    fn load_ident(&mut self, shared: &mut Shared, name: &str) {
        let c = shared.intern(name);
        match self.slot_for(name) {
            Some(slot) => self.emit(Insn::LoadSlot { slot, name: c }),
            None => self.emit(Insn::LoadName(c)),
        }
    }

    /// Emits a name store with `Env::assign` semantics.
    fn store_ident(&mut self, shared: &mut Shared, name: &str) {
        let c = shared.intern(name);
        match self.slot_for(name) {
            Some(slot) => self.emit(Insn::StoreSlot { slot, name: c }),
            None => self.emit(Insn::StoreName(c)),
        }
    }

    /// Emits the assignment tail for `target`, consuming the value on
    /// top of the stack (interpreter `assign_to`: member/index bases
    /// are re-evaluated *after* the value exists).
    fn assign_to(&mut self, shared: &mut Shared, target: &Expr) {
        match target {
            Expr::Ident(name) => self.store_ident(shared, name),
            Expr::Member(obj, name) => {
                self.expr(shared, obj);
                let c = shared.intern(name);
                self.emit(Insn::SetMember(c));
            }
            Expr::Index(obj, idx) => {
                self.expr(shared, obj);
                self.expr(shared, idx);
                self.emit(Insn::SetIndex);
            }
            other => {
                let msg = shared.intern(&format!("invalid assignment target {other:?}"));
                self.emit(Insn::ThrowConst(msg));
            }
        }
    }

    fn expr(&mut self, shared: &mut Shared, expr: &Expr) {
        self.emit(Insn::Tick);
        match expr {
            Expr::Num(n) => self.emit(Insn::PushNum(*n)),
            Expr::Str(s) => {
                let c = shared.intern(s);
                self.emit(Insn::PushStr(c));
            }
            Expr::Bool(b) => self.emit(Insn::PushBool(*b)),
            Expr::Null => self.emit(Insn::PushNull),
            Expr::Undefined => self.emit(Insn::PushUndefined),
            Expr::Ident(name) => self.load_ident(shared, name),
            Expr::Member(obj, name) => {
                self.expr(shared, obj);
                let c = shared.intern(name);
                self.emit(Insn::GetMember(c));
            }
            Expr::Index(obj, idx) => {
                self.expr(shared, obj);
                self.expr(shared, idx);
                self.emit(Insn::GetIndex);
            }
            Expr::Call(callee, args) => {
                match &**callee {
                    Expr::Member(obj, name) => {
                        self.expr(shared, obj);
                        let c = shared.intern(name);
                        self.emit(Insn::GetMethod(c));
                    }
                    Expr::Index(obj, idx) => {
                        self.expr(shared, obj);
                        self.expr(shared, idx);
                        self.emit(Insn::GetMethodIndex);
                    }
                    other => {
                        self.emit(Insn::PushUndefined);
                        self.expr(shared, other);
                    }
                }
                for a in args {
                    self.expr(shared, a);
                }
                self.emit(Insn::Call(args.len() as u32));
            }
            Expr::New(ctor, args) => {
                self.expr(shared, ctor);
                for a in args {
                    self.expr(shared, a);
                }
                self.emit(Insn::New(args.len() as u32));
            }
            Expr::Assign(lhs, rhs) => {
                self.expr(shared, rhs);
                self.emit(Insn::Dup);
                self.assign_to(shared, lhs);
            }
            Expr::AssignOp(op, lhs, rhs) => {
                self.expr(shared, lhs);
                self.expr(shared, rhs);
                self.emit(Insn::Binary(*op));
                self.emit(Insn::Dup);
                self.assign_to(shared, lhs);
            }
            Expr::Binary(op, lhs, rhs) => match op {
                BinOp::And => {
                    self.expr(shared, lhs);
                    let l_end = self.label();
                    self.emit(Insn::JumpIfFalsyKeep(l_end));
                    self.emit(Insn::Pop);
                    self.expr(shared, rhs);
                    self.bind(l_end);
                }
                BinOp::Or => {
                    self.expr(shared, lhs);
                    let l_end = self.label();
                    self.emit(Insn::JumpIfTruthyKeep(l_end));
                    self.emit(Insn::Pop);
                    self.expr(shared, rhs);
                    self.bind(l_end);
                }
                _ => {
                    self.expr(shared, lhs);
                    self.expr(shared, rhs);
                    self.emit(Insn::Binary(*op));
                }
            },
            Expr::Unary(op, operand) => match op {
                UnOp::TypeOf => {
                    let l_err = self.label();
                    let l_done = self.label();
                    self.emit(Insn::PushHandler { kind: HandlerKind::TypeOf, target: l_err });
                    self.handler_depth += 1;
                    self.expr(shared, operand);
                    self.emit(Insn::PopHandler);
                    self.handler_depth -= 1;
                    self.emit(Insn::TypeOfValue);
                    self.emit(Insn::Jump(l_done));
                    // Error path: the dispatcher pushed "undefined".
                    self.bind(l_err);
                    self.bind(l_done);
                }
                _ => {
                    self.expr(shared, operand);
                    self.emit(Insn::Unary(*op));
                }
            },
            Expr::Ternary(c, t, f) => {
                self.expr(shared, c);
                let l_else = self.label();
                let l_end = self.label();
                self.emit(Insn::JumpIfFalsy(l_else));
                self.expr(shared, t);
                self.emit(Insn::Jump(l_end));
                self.bind(l_else);
                self.expr(shared, f);
                self.bind(l_end);
            }
            Expr::Function { name, params, body } => {
                let chunk = compile_chunk(
                    shared,
                    ChunkKind::Function { name: name.as_deref(), params },
                    body,
                );
                self.emit(Insn::MakeClosure(chunk));
            }
            Expr::Array(items) => {
                for item in items {
                    self.expr(shared, item);
                }
                self.emit(Insn::MakeArray(items.len() as u32));
            }
            Expr::Object(props) => {
                self.emit(Insn::MakeObject);
                for (k, v) in props {
                    self.expr(shared, v);
                    let c = shared.intern(k);
                    self.emit(Insn::ObjInsert(c));
                }
            }
            Expr::PostIncr(target) | Expr::PostDecr(target) => {
                let delta = if matches!(expr, Expr::PostIncr(_)) { 1.0 } else { -1.0 };
                self.expr(shared, target);
                self.emit(Insn::ToNumber);
                self.emit(Insn::Dup);
                self.emit(Insn::AddConst(delta));
                self.assign_to(shared, target);
            }
        }
    }

    /// Rewrites label ids into absolute instruction indices.
    fn finalize(self) -> Vec<Insn> {
        let ChunkCompiler { mut code, labels, .. } = self;
        for insn in &mut code {
            match insn {
                Insn::Jump(t)
                | Insn::JumpIfFalsy(t)
                | Insn::JumpIfTruthy(t)
                | Insn::JumpIfFalsyKeep(t)
                | Insn::JumpIfTruthyKeep(t)
                | Insn::PushHandler { target: t, .. }
                | Insn::IterNext { end: t, .. } => {
                    let resolved = labels[*t as usize];
                    debug_assert_ne!(resolved, u32::MAX, "unbound label");
                    *t = resolved;
                }
                _ => {}
            }
        }
        code
    }
}

// The module cache shares compiled payloads across scan workers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Module>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compile(src: &str) -> Arc<Module> {
        let prog = parse_program(src).expect("parse");
        compile_program(&prog, source_hash(src))
    }

    #[test]
    fn program_chunk_is_first_and_halts() {
        let m = compile("var x = 1;");
        assert!(!m.chunks[0].is_function);
        assert_eq!(m.chunks[0].code.last(), Some(&Insn::Halt));
    }

    #[test]
    fn function_chunks_carry_slot_maps() {
        let m = compile("function f(a, b) { var c = 1; return a + b + c; }");
        assert_eq!(m.chunks.len(), 2);
        let f = &m.chunks[1];
        assert!(f.is_function);
        assert_eq!(f.name.as_deref(), Some("f"));
        let map = f.slot_map.as_ref().expect("slot map");
        for name in ["a", "b", "c", "this", "arguments"] {
            assert!(map.contains_key(name), "missing slot for {name}");
        }
        assert_eq!(f.n_slots as usize, map.len());
    }

    #[test]
    fn ticks_match_statement_and_expression_counts() {
        // `var x = 1;` — one stmt tick + one expr tick.
        let m = compile("var x = 1;");
        let ticks = m.chunks[0].code.iter().filter(|i| matches!(i, Insn::Tick)).count();
        assert_eq!(ticks, 2);
    }

    #[test]
    fn jumps_resolve_to_real_targets() {
        let m = compile(
            "for (var i = 0; i < 3; i++) { if (i == 1) continue; if (i == 2) break; } \
             switch (1) { case 1: break; default: } \
             try { x(); } catch (e) {} \
             var t = typeof missing;",
        );
        for chunk in &m.chunks {
            let len = chunk.code.len() as u32;
            for insn in &chunk.code {
                let target = match insn {
                    Insn::Jump(t)
                    | Insn::JumpIfFalsy(t)
                    | Insn::JumpIfTruthy(t)
                    | Insn::JumpIfFalsyKeep(t)
                    | Insn::JumpIfTruthyKeep(t)
                    | Insn::PushHandler { target: t, .. }
                    | Insn::IterNext { end: t, .. } => Some(*t),
                    _ => None,
                };
                if let Some(t) = target {
                    assert!(t <= len, "jump target {t} out of range {len}");
                }
            }
        }
    }

    #[test]
    fn string_constants_are_interned_once() {
        let m = compile("var a = 'dup'; var b = 'dup'; var c = 'dup';");
        assert_eq!(m.consts.iter().filter(|s| s.as_str() == "dup").count(), 1);
    }

    #[test]
    fn source_hash_is_stable_and_discriminating() {
        assert_eq!(source_hash("abc"), source_hash("abc"));
        assert_ne!(source_hash("abc"), source_hash("abd"));
        // Known FNV-1a 64 vector.
        assert_eq!(source_hash(""), 0xcbf2_9ce4_8422_2325);
    }
}
