//! Stack-based bytecode VM.
//!
//! Executes [`crate::compile::Module`]s produced by the bytecode
//! compiler. The VM honours exactly the contracts the tree-walking
//! interpreter established — the same step budget (one
//! [`crate::compile::Insn::Tick`] per interpreter tick site), the same
//! [`Host`] callout points in the same order, the same `JsError`
//! values, and the same 64-frame call-depth cap — so the interpreter
//! can serve as a differential-testing oracle while the VM carries the
//! scan hot path.
//!
//! When constructed with a [`ModuleStore`], top-level programs (and
//! `eval` layers, which flow through the same [`EngineCtx::run_program`]
//! entry point) are compiled once per source hash and shared across
//! workers: campaign pages reusing a packed payload skip both the
//! parse and the compile on warm lookups.

use std::rc::Rc;
use std::sync::Arc;

use crate::ast::UnOp;
use crate::compile::{
    compile_function, compile_program, source_hash, HandlerKind, Insn, Module, ModuleStore,
};
use crate::env::{Env, EnvRef};
use crate::interp::{binop_eval, member_get, member_set, EngineCtx, Host};
use crate::parser::parse_program;
use crate::value::{FnDef, ObjectData, Value};
use crate::JsError;

/// A live error handler: where to resume and how much frame state to
/// drop on the way there.
struct Handler {
    kind: HandlerKind,
    target: u32,
    stack_len: usize,
    env_len: usize,
    iter_len: usize,
}

/// Bytecode executor state: budget, call depth, and instrumentation.
pub struct Vm {
    steps_remaining: u64,
    call_depth: u32,
    max_call_depth: u32,
    /// Total budget steps consumed (identical to the interpreter's
    /// count on the same script — tick parity is a hard invariant).
    pub steps_used: u64,
    /// Total instructions dispatched (deterministic per script;
    /// surfaces as `js.vm.instructions`).
    pub instructions: u64,
    /// Module-cache lookups issued (hits + misses).
    pub module_lookups: u64,
    store: Option<Arc<dyn ModuleStore>>,
}

impl Vm {
    /// Creates a VM with the given step budget and optional shared
    /// module cache.
    pub fn new(budget: u64, store: Option<Arc<dyn ModuleStore>>) -> Self {
        Vm {
            steps_remaining: budget,
            call_depth: 0,
            max_call_depth: 64,
            steps_used: 0,
            instructions: 0,
            module_lookups: 0,
            store,
        }
    }

    fn tick(&mut self) -> Result<(), JsError> {
        if self.steps_remaining == 0 {
            return Err(JsError::BudgetExhausted);
        }
        self.steps_remaining -= 1;
        self.steps_used += 1;
        Ok(())
    }

    /// Parses (on cache miss), compiles and runs `src` in `env`.
    /// Lex/parse errors surface as the `Err` variant exactly as the
    /// interpreter path would produce them.
    pub fn run_source(
        &mut self,
        src: &str,
        env: &EnvRef,
        host: &mut dyn Host,
    ) -> Result<(), JsError> {
        let module = self.obtain_module(src)?;
        self.run_chunk(&module, 0, env.clone(), host).map(|_| ())
    }

    /// Fetches the compiled module for `src`, consulting the shared
    /// store first. A warm hit skips both the parse and the compile —
    /// that is the entire point of the cache.
    fn obtain_module(&mut self, src: &str) -> Result<Arc<Module>, JsError> {
        let key = source_hash(src);
        if let Some(store) = self.store.clone() {
            self.module_lookups += 1;
            if let Some(m) = store.get(key) {
                return Ok(m);
            }
            let prog = parse_program(src)?;
            Ok(store.get_or_compile(key, &mut || compile_program(&prog, key)))
        } else {
            let prog = parse_program(src)?;
            Ok(compile_program(&prog, key))
        }
    }

    /// Invokes a function value (compiled chunk, or an interpreter-made
    /// closure compiled on the fly as a fallback).
    fn call_def(
        &mut self,
        def: &FnDef,
        this_val: Value,
        args: Vec<Value>,
        host: &mut dyn Host,
    ) -> Result<Value, JsError> {
        if self.call_depth >= self.max_call_depth {
            return Err(JsError::Runtime("maximum call depth exceeded".into()));
        }
        let (module, chunk_idx) = match &def.code {
            Some((m, i)) => (m.clone(), *i),
            None => (compile_function(def.name.as_deref(), &def.params, &def.body), 0),
        };
        let scope = {
            let chunk = &module.chunks[chunk_idx as usize];
            let scope = match &chunk.slot_map {
                Some(map) => Env::child_with_slots(&def.env, map.clone(), chunk.n_slots),
                None => Env::child(&def.env),
            };
            {
                let mut s = scope.borrow_mut();
                for (i, p) in chunk.params.iter().enumerate() {
                    s.declare(p.clone(), args.get(i).cloned().unwrap_or(Value::Undefined));
                }
                s.declare("this", this_val);
                s.declare("arguments", Value::Object(ObjectData::array(args)));
            }
            scope
        };
        self.call_depth += 1;
        let result = self.run_chunk(&module, chunk_idx, scope, host);
        self.call_depth -= 1;
        result
    }

    /// The dispatch loop. One Rust frame per JS activation (sound
    /// because the call-depth cap is 64); within a frame the value
    /// stack, scope stack, iterator stack and handler stack are plain
    /// vectors the compiler keeps balanced.
    fn run_chunk(
        &mut self,
        module: &Arc<Module>,
        chunk_idx: u32,
        base_env: EnvRef,
        host: &mut dyn Host,
    ) -> Result<Value, JsError> {
        let chunk = &module.chunks[chunk_idx as usize];
        let consts = &module.consts;
        let mut stack: Vec<Value> = Vec::new();
        let mut envs: Vec<EnvRef> = vec![base_env];
        let mut iters: Vec<(Vec<String>, usize)> = Vec::new();
        let mut handlers: Vec<Handler> = Vec::new();
        let mut ip: usize = 0;
        'dispatch: loop {
            let Some(insn) = chunk.code.get(ip) else {
                // Chunks end in Return/Halt; falling off is a compiler
                // bug but completing quietly beats a panic on it.
                return Ok(Value::Undefined);
            };
            ip += 1;
            self.instructions += 1;
            // Fallible instructions break out with the error; the
            // handler unwind below decides whether it is caught.
            let err: JsError = 'step: {
                match insn {
                    Insn::Tick => {
                        if let Err(e) = self.tick() {
                            break 'step e;
                        }
                    }
                    Insn::PushNum(n) => stack.push(Value::Num(*n)),
                    Insn::PushStr(c) => stack.push(Value::Str(consts[*c as usize].clone())),
                    Insn::PushBool(b) => stack.push(Value::Bool(*b)),
                    Insn::PushNull => stack.push(Value::Null),
                    Insn::PushUndefined => stack.push(Value::Undefined),
                    Insn::Pop => {
                        stack.pop();
                    }
                    Insn::Dup => {
                        let top = stack.last().expect("dup on empty stack").clone();
                        stack.push(top);
                    }
                    Insn::LoadName(c) => {
                        let name = &consts[*c as usize];
                        match Env::lookup(env_top(&envs), name) {
                            Some(v) => stack.push(v),
                            None => {
                                break 'step JsError::Runtime(format!("{name} is not defined"))
                            }
                        }
                    }
                    Insn::LoadSlot { slot, name } => {
                        let env = env_top(&envs);
                        if let Some(v) = env.borrow().get_slot(*slot) {
                            stack.push(v);
                        } else {
                            // Slot undeclared here: fall through the
                            // chain like the interpreter's name walk.
                            let name = &consts[*name as usize];
                            match Env::lookup(env, name) {
                                Some(v) => stack.push(v),
                                None => {
                                    break 'step JsError::Runtime(format!(
                                        "{name} is not defined"
                                    ))
                                }
                            }
                        }
                    }
                    Insn::StoreName(c) => {
                        let value = stack.pop().expect("store on empty stack");
                        Env::assign(env_top(&envs), &consts[*c as usize], value);
                    }
                    Insn::StoreSlot { slot, name } => {
                        let value = stack.pop().expect("store on empty stack");
                        let env = env_top(&envs);
                        let declared = env.borrow().get_slot(*slot).is_some();
                        if declared {
                            env.borrow_mut().set_slot(*slot, value);
                        } else {
                            Env::assign(env, &consts[*name as usize], value);
                        }
                    }
                    Insn::DeclareName(c) => {
                        let value = stack.pop().expect("declare on empty stack");
                        env_top(&envs).borrow_mut().declare(consts[*c as usize].clone(), value);
                    }
                    Insn::DeclareFn(ci) => {
                        let f = make_closure(module, *ci, env_top(&envs));
                        let name = module.chunks[*ci as usize]
                            .name
                            .clone()
                            .expect("hoisted function without a name");
                        env_top(&envs).borrow_mut().declare(name, f);
                    }
                    Insn::MakeClosure(ci) => {
                        let f = make_closure(module, *ci, env_top(&envs));
                        stack.push(f);
                    }
                    Insn::GetMember(c) => {
                        let base = stack.pop().expect("member on empty stack");
                        match member_get(&base, &consts[*c as usize]) {
                            Ok(v) => stack.push(v),
                            Err(e) => break 'step e,
                        }
                    }
                    Insn::GetIndex => {
                        let idx = stack.pop().expect("index on empty stack");
                        let base = stack.pop().expect("index base on empty stack");
                        match member_get(&base, &idx.to_js_string()) {
                            Ok(v) => stack.push(v),
                            Err(e) => break 'step e,
                        }
                    }
                    Insn::GetMethod(c) => {
                        let base = stack.pop().expect("method base on empty stack");
                        match member_get(&base, &consts[*c as usize]) {
                            Ok(f) => {
                                stack.push(base);
                                stack.push(f);
                            }
                            Err(e) => break 'step e,
                        }
                    }
                    Insn::GetMethodIndex => {
                        let idx = stack.pop().expect("method index on empty stack");
                        let base = stack.pop().expect("method base on empty stack");
                        match member_get(&base, &idx.to_js_string()) {
                            Ok(f) => {
                                stack.push(base);
                                stack.push(f);
                            }
                            Err(e) => break 'step e,
                        }
                    }
                    Insn::SetMember(c) => {
                        let base = stack.pop().expect("set base on empty stack");
                        let value = stack.pop().expect("set value on empty stack");
                        if let Err(e) = member_set(&base, &consts[*c as usize], value, host) {
                            break 'step e;
                        }
                    }
                    Insn::SetIndex => {
                        let idx = stack.pop().expect("set index on empty stack");
                        let base = stack.pop().expect("set base on empty stack");
                        let value = stack.pop().expect("set value on empty stack");
                        if let Err(e) = member_set(&base, &idx.to_js_string(), value, host) {
                            break 'step e;
                        }
                    }
                    Insn::ObjInsert(c) => {
                        let value = stack.pop().expect("insert on empty stack");
                        if let Some(Value::Object(o)) = stack.last() {
                            o.borrow_mut().props.insert(consts[*c as usize].clone(), value);
                        }
                    }
                    Insn::MakeArray(n) => {
                        let items = stack.split_off(stack.len() - *n as usize);
                        stack.push(Value::Object(ObjectData::array(items)));
                    }
                    Insn::MakeObject => stack.push(Value::Object(ObjectData::object())),
                    Insn::Binary(op) => {
                        let r = stack.pop().expect("binop rhs on empty stack");
                        let l = stack.pop().expect("binop lhs on empty stack");
                        match binop_eval(*op, l, r) {
                            Ok(v) => stack.push(v),
                            Err(e) => break 'step e,
                        }
                    }
                    Insn::Unary(op) => {
                        let v = stack.pop().expect("unary on empty stack");
                        stack.push(match op {
                            UnOp::Not => Value::Bool(!v.truthy()),
                            UnOp::Neg => Value::Num(-v.to_number()),
                            UnOp::Pos => Value::Num(v.to_number()),
                            UnOp::TypeOf => unreachable!("typeof compiles to a handler region"),
                        });
                    }
                    Insn::TypeOfValue => {
                        let v = stack.pop().expect("typeof on empty stack");
                        stack.push(Value::Str(v.type_of().to_string()));
                    }
                    Insn::ToNumber => {
                        let v = stack.pop().expect("tonumber on empty stack");
                        stack.push(Value::Num(v.to_number()));
                    }
                    Insn::AddConst(d) => {
                        let v = stack.pop().expect("addconst on empty stack");
                        stack.push(Value::Num(v.to_number() + d));
                    }
                    Insn::Call(n) => {
                        let args = stack.split_off(stack.len() - *n as usize);
                        let func = stack.pop().expect("callee on empty stack");
                        let this_val = stack.pop().expect("this on empty stack");
                        let result = match func {
                            Value::Function(def) => self.call_def(&def, this_val, args, host),
                            Value::Native(name) => {
                                let env = env_top(&envs).clone();
                                host.call_native(self, &env, name, this_val, args)
                            }
                            other => {
                                Err(JsError::Runtime(format!("{other:?} is not a function")))
                            }
                        };
                        match result {
                            Ok(v) => stack.push(v),
                            Err(e) => break 'step e,
                        }
                    }
                    Insn::New(n) => {
                        let args = stack.split_off(stack.len() - *n as usize);
                        let ctor = stack.pop().expect("constructor on empty stack");
                        let result = match ctor {
                            Value::Function(def) => {
                                let this = Value::Object(ObjectData::object());
                                self.call_def(&def, this.clone(), args, host).map(|_| this)
                            }
                            Value::Native(name) => {
                                let env = env_top(&envs).clone();
                                host.call_native(self, &env, name, Value::Undefined, args)
                            }
                            other => {
                                Err(JsError::Runtime(format!("{other:?} is not a constructor")))
                            }
                        };
                        match result {
                            Ok(v) => stack.push(v),
                            Err(e) => break 'step e,
                        }
                    }
                    Insn::Jump(t) => ip = *t as usize,
                    Insn::JumpIfFalsy(t) => {
                        let v = stack.pop().expect("branch on empty stack");
                        if !v.truthy() {
                            ip = *t as usize;
                        }
                    }
                    Insn::JumpIfTruthy(t) => {
                        let v = stack.pop().expect("branch on empty stack");
                        if v.truthy() {
                            ip = *t as usize;
                        }
                    }
                    Insn::JumpIfFalsyKeep(t) => {
                        if !stack.last().expect("branch on empty stack").truthy() {
                            ip = *t as usize;
                        }
                    }
                    Insn::JumpIfTruthyKeep(t) => {
                        if stack.last().expect("branch on empty stack").truthy() {
                            ip = *t as usize;
                        }
                    }
                    Insn::PushScope => {
                        let child = Env::child(env_top(&envs));
                        envs.push(child);
                    }
                    Insn::PopScope => {
                        envs.pop();
                    }
                    Insn::PushHandler { kind, target } => handlers.push(Handler {
                        kind: *kind,
                        target: *target,
                        stack_len: stack.len(),
                        env_len: envs.len(),
                        iter_len: iters.len(),
                    }),
                    Insn::PopHandler => {
                        handlers.pop();
                    }
                    Insn::MakeIter => {
                        let v = stack.pop().expect("iter on empty stack");
                        iters.push((for_in_keys(&v), 0));
                    }
                    Insn::IterNext { name, end } => {
                        let (keys, pos) = iters.last_mut().expect("iter-next without iterator");
                        if *pos < keys.len() {
                            let key = keys[*pos].clone();
                            *pos += 1;
                            env_top(&envs)
                                .borrow_mut()
                                .declare(consts[*name as usize].clone(), Value::Str(key));
                        } else {
                            ip = *end as usize;
                        }
                    }
                    Insn::PopIter => {
                        iters.pop();
                    }
                    Insn::Return => {
                        return Ok(stack.pop().expect("return on empty stack"));
                    }
                    Insn::Halt => return Ok(Value::Undefined),
                    Insn::ThrowConst(c) => {
                        break 'step JsError::Runtime(consts[*c as usize].clone());
                    }
                }
                continue 'dispatch;
            };
            // Unwind: innermost handler out. `typeof` regions swallow
            // everything (the next tick re-raises exhaustion); `catch`
            // swallows everything except budget exhaustion.
            let mut caught = false;
            while let Some(h) = handlers.pop() {
                let catches = match h.kind {
                    HandlerKind::TypeOf => true,
                    HandlerKind::Catch => !matches!(err, JsError::BudgetExhausted),
                };
                if catches {
                    stack.truncate(h.stack_len);
                    envs.truncate(h.env_len);
                    iters.truncate(h.iter_len);
                    stack.push(match h.kind {
                        HandlerKind::TypeOf => Value::Str("undefined".into()),
                        HandlerKind::Catch => Value::Str(err.to_string()),
                    });
                    ip = h.target as usize;
                    caught = true;
                    break;
                }
            }
            if !caught {
                return Err(err);
            }
        }
    }
}

impl EngineCtx for Vm {
    fn call_function_value(
        &mut self,
        host: &mut dyn Host,
        def: &FnDef,
        this_val: Value,
        args: Vec<Value>,
    ) -> Result<Value, JsError> {
        self.call_def(def, this_val, args, host)
    }

    fn run_program(
        &mut self,
        host: &mut dyn Host,
        src: &str,
        env: &EnvRef,
    ) -> Result<(), JsError> {
        self.run_source(src, env, host)
    }

    fn steps_used(&self) -> u64 {
        self.steps_used
    }
}

/// The current scope (innermost entry of the frame's scope stack).
fn env_top(envs: &[EnvRef]) -> &EnvRef {
    envs.last().expect("scope stack underflow")
}

/// Mints a closure over `chunk` and the current scope. A fresh `Rc` per
/// execution matches the interpreter, which builds a new `FnDef` every
/// time it evaluates a function expression or hoists a declaration.
fn make_closure(module: &Arc<Module>, chunk_idx: u32, env: &EnvRef) -> Value {
    let chunk = &module.chunks[chunk_idx as usize];
    Value::Function(Rc::new(FnDef {
        name: chunk.name.clone(),
        params: chunk.params.clone(),
        body: Vec::new(),
        env: env.clone(),
        code: Some((module.clone(), chunk_idx)),
    }))
}

/// `for..in` key snapshot, identical to the interpreter's: own
/// enumerable keys minus array bookkeeping; strings yield index
/// strings.
fn for_in_keys(v: &Value) -> Vec<String> {
    match v {
        Value::Object(o) => o
            .borrow()
            .props
            .keys()
            .filter(|k| k.as_str() != "length" && !k.starts_with("__"))
            .cloned()
            .collect(),
        Value::Str(s) => (0..s.chars().count()).map(|i| i.to_string()).collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{call_prototype_method, display_value, Interp, DEFAULT_BUDGET};

    /// Minimal host mirroring the interpreter's test host.
    struct TestHost {
        log: Vec<String>,
    }

    impl Host for TestHost {
        fn call_native(
            &mut self,
            _cx: &mut dyn EngineCtx,
            _env: &EnvRef,
            name: &str,
            this_val: Value,
            args: Vec<Value>,
        ) -> Result<Value, JsError> {
            if let Some(r) = call_prototype_method(name, &this_val, &args) {
                return r;
            }
            match name {
                "log" => {
                    self.log.push(args.first().map(display_value).unwrap_or_default());
                    Ok(Value::Undefined)
                }
                other => Err(JsError::Runtime(format!("unknown native {other}"))),
            }
        }
    }

    fn test_env() -> EnvRef {
        let env = Env::global();
        env.borrow_mut().declare("log", Value::Native("log"));
        env.borrow_mut().declare("parseInt", Value::Native("parseInt"));
        env
    }

    /// Runs `src` on both engines and asserts identical host-visible
    /// behaviour including the step count.
    fn assert_engines_agree(src: &str) {
        let prog = parse_program(src).expect("parse");
        let i_env = test_env();
        let mut i_host = TestHost { log: Vec::new() };
        let mut interp = Interp::default();
        let i_res = interp.run(&prog, &i_env, &mut i_host);

        let v_env = test_env();
        let mut v_host = TestHost { log: Vec::new() };
        let mut vm = Vm::new(DEFAULT_BUDGET, None);
        let v_res = vm.run_source(src, &v_env, &mut v_host);

        assert_eq!(i_res, v_res, "result mismatch on {src:?}");
        assert_eq!(i_host.log, v_host.log, "host log mismatch on {src:?}");
        assert_eq!(interp.steps_used, vm.steps_used, "step count mismatch on {src:?}");
    }

    #[test]
    fn basics_match_interpreter() {
        for src in [
            "log(2 + 3 * 4);",
            "log('n=' + 42);",
            "var s = 0; for (var i = 1; i <= 10; i++) { s += i; } log(s);",
            "var i = 0; while (true) { i++; if (i >= 3) break; } log(i);",
            "var s = 0; for (var i = 0; i < 5; i++) { if (i == 2) continue; s += i; } log(s);",
            "function mk(n) { return function() { return n + 1; }; } log(mk(4)());",
            "log(f()); function f() { return 'hoisted'; }",
            "function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); } log(fact(10));",
            "var o = {a: 1}; o.b = o.a + 1; log(o.b); o['c'] = 'z'; log(o.c);",
            "var a = [1,2]; a.push(3); log(a.length); log(a.join('-'));",
            "log(typeof nothing_here);",
            "try { missing(); } catch (e) { log('caught'); log(e); }",
            "var i = 5; log(i++); log(i);",
            "var o = {v: 7, get: function() { return this.v; }}; log(o.get());",
            "function f() { return arguments.length; } log(f(1,2,3));",
            "var i = 10; do { log(i); } while (i < 5);",
            "var o = {a: 1, b: 2}; var keys = ''; for (var k in o) { keys += k; } log(keys);",
            "var s = ''; for (var i in 'xyz') { s += i; } log(s);",
            "switch (2) { case 1: log('one'); break; case 2: log('two'); break; default: log('other'); }",
            "switch (1) { case 1: log('a'); case 2: log('b'); break; case 3: log('c'); }",
            "switch ('zz') { case 'a': log('a'); break; default: log('dflt'); }",
            "function f(x) { switch (x) { case 1: return 'one'; default: return 'many'; } } log(f(1)); log(f(9));",
            "log(0 || 'fallback'); log(1 && 2);",
            "log(parseInt('42px')); log(parseInt('ff', 16));",
            "log('abcdef'.substring(1, 3)); log('a,b,c'.split(',').length);",
        ] {
            assert_engines_agree(src);
        }
    }

    #[test]
    fn budget_exhaustion_point_matches_interpreter() {
        let src = "var i = 0; while (true) { i = i + 1; }";
        let prog = parse_program(src).expect("parse");
        for budget in [0, 1, 7, 100, 1001] {
            let mut i_host = TestHost { log: Vec::new() };
            let mut interp = Interp::new(budget);
            let i_res = interp.run(&prog, &Env::global(), &mut i_host);

            let mut v_host = TestHost { log: Vec::new() };
            let mut vm = Vm::new(budget, None);
            let v_res = vm.run_source(src, &Env::global(), &mut v_host);

            assert_eq!(i_res, v_res, "budget {budget}");
            assert_eq!(interp.steps_used, vm.steps_used, "budget {budget}");
        }
    }

    #[test]
    fn budget_exhaustion_not_catchable() {
        let env = Env::global();
        let mut host = TestHost { log: Vec::new() };
        let mut vm = Vm::new(5_000, None);
        assert_eq!(
            vm.run_source("try { while (true) {} } catch (e) { }", &env, &mut host),
            Err(JsError::BudgetExhausted)
        );
    }

    #[test]
    fn deep_recursion_hits_depth_cap() {
        let env = Env::global();
        let mut host = TestHost { log: Vec::new() };
        let mut vm = Vm::new(DEFAULT_BUDGET, None);
        assert!(matches!(
            vm.run_source("function f() { return f(); } f();", &env, &mut host),
            Err(JsError::Runtime(_))
        ));
    }

    #[test]
    fn instructions_are_counted() {
        let env = test_env();
        let mut host = TestHost { log: Vec::new() };
        let mut vm = Vm::new(DEFAULT_BUDGET, None);
        vm.run_source("log(1 + 2);", &env, &mut host).expect("run");
        assert!(vm.instructions > 0);
        assert!(vm.steps_used > 0);
    }

    #[test]
    fn continue_in_switch_arm_is_swallowed() {
        // The interpreter's arm loop treats `continue` like `Normal`:
        // the next arm statement still runs.
        assert_engines_agree(
            "var s = ''; for (var i = 0; i < 2; i++) { \
               switch (i) { case 0: s += 'a'; continue; case 1: s += 'b'; } s += '.'; } log(s);",
        );
    }

    #[test]
    fn slot_fallback_handles_delayed_declaration() {
        // `v` is slot-mapped (top-level var) but read before its
        // declaration executes: the slot is unset, so the read walks
        // out to the global the same way the interpreter would.
        assert_engines_agree("g = 'outer'; function f() { log(typeof v); var v = 1; log(v); } f();");
    }
}
