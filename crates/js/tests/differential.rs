//! Differential property tests: the bytecode VM must be observably
//! identical to the tree-walking interpreter — same effect stream
//! (host-call order), same written HTML, same error strings, same step
//! count (budget-exhaustion point), same eval depth — on arbitrary
//! source, generated programs, and `obfuscate` packed payloads, with
//! and without a warm module cache.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use slum_js::obfuscate::pack_layers;
use slum_js::sandbox::{JsEngine, Sandbox, SandboxReport};
use slum_js::{Module, ModuleStore};

/// Minimal shared module cache for tests.
#[derive(Debug, Default)]
struct TestStore(Mutex<HashMap<u64, Arc<Module>>>);

impl ModuleStore for TestStore {
    fn get(&self, key: u64) -> Option<Arc<Module>> {
        self.0.lock().unwrap().get(&key).cloned()
    }

    fn get_or_compile(
        &self,
        key: u64,
        compile: &mut dyn FnMut() -> Arc<Module>,
    ) -> Arc<Module> {
        let mut map = self.0.lock().unwrap();
        map.entry(key).or_insert_with(compile).clone()
    }
}

/// Everything observable about a run except the VM-only counters.
fn observable(r: &SandboxReport) -> (Vec<String>, &str, &[String], u64, u32) {
    (
        r.effects.iter().map(|e| format!("{e:?}")).collect(),
        &r.written_html,
        &r.errors,
        r.steps_used,
        r.max_eval_depth,
    )
}

fn run_engine(src: &str, engine: JsEngine, budget: u64) -> SandboxReport {
    Sandbox::new().with_engine(engine).with_budget(budget).run(src)
}

fn assert_engines_agree(src: &str, budget: u64) {
    let interp = run_engine(src, JsEngine::TreeWalk, budget);
    let vm = run_engine(src, JsEngine::Vm, budget);
    assert_eq!(observable(&interp), observable(&vm), "engines diverged on {src:?}");

    // A warm cache must not change behaviour either: run twice against
    // the same store and compare both runs to the oracle.
    let store: Arc<dyn ModuleStore> = Arc::new(TestStore::default());
    let cold = Sandbox::new()
        .with_engine(JsEngine::Vm)
        .with_budget(budget)
        .with_module_store(store.clone())
        .run(src);
    let warm = Sandbox::new()
        .with_engine(JsEngine::Vm)
        .with_budget(budget)
        .with_module_store(store)
        .run(src);
    assert_eq!(observable(&interp), observable(&cold), "cold cache diverged on {src:?}");
    assert_eq!(observable(&interp), observable(&warm), "warm cache diverged on {src:?}");
}

/// Expression generator over a small pool of pre-declared names, so
/// most generated programs execute meaningfully rather than dying on
/// the first undefined identifier. `depth` bounds recursion manually
/// (the offline proptest shim has no `prop_recursive`).
fn expr_strategy(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (-100i32..100).prop_map(|n| n.to_string()),
        "[a-z]{0,6}".prop_map(|s| format!("'{s}'")),
        Just("true".to_string()),
        Just("false".to_string()),
        Just("null".to_string()),
        Just("undefined".to_string()),
        Just("x".to_string()),
        Just("y".to_string()),
        Just("o.a".to_string()),
        Just("arr[0]".to_string()),
        Just("arr.length".to_string()),
        Just("missing_name".to_string()),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let op = prop_oneof![
        Just("+"),
        Just("-"),
        Just("*"),
        Just("%"),
        Just("=="),
        Just("==="),
        Just("!="),
        Just("<"),
        Just(">="),
        Just("&&"),
        Just("||"),
    ];
    prop_oneof![
        leaf,
        (expr_strategy(depth - 1), op, expr_strategy(depth - 1))
            .prop_map(|(a, op, b)| format!("({a} {op} {b})")),
        expr_strategy(depth - 1).prop_map(|a| format!("(typeof {a})")),
        (expr_strategy(depth - 1), expr_strategy(depth - 1), expr_strategy(depth - 1))
            .prop_map(|(c, t, f)| format!("({c} ? {t} : {f})")),
        expr_strategy(depth - 1).prop_map(|a| format!("(-{a})")),
        expr_strategy(depth - 1).prop_map(|a| format!("(!{a})")),
        expr_strategy(depth - 1).prop_map(|a| format!("f({a})")),
        expr_strategy(depth - 1).prop_map(|a| format!("('' + {a})")),
    ]
    .boxed()
}

/// Statement templates exercising every compiled construct: loops with
/// `break`/`continue`, switch fall-through, try/catch, closures,
/// member/index assignment, postfix operators, `for..in`, and eval.
fn stmt_strategy() -> BoxedStrategy<String> {
    let e = || expr_strategy(2);
    prop_oneof![
        e().prop_map(|e| format!("x = {e}; alert(x);")),
        e().prop_map(|e| format!("var v = {e}; alert(v);")),
        e().prop_map(|e| format!("if ({e}) {{ alert('t'); }} else {{ alert('f'); }}")),
        (1u32..5, e()).prop_map(|(n, e)| format!(
            "for (var i = 0; i < {n}; i++) {{ y = y + i; \
             if (i == 1) continue; if (i == 3) break; alert({e}); }}"
        )),
        e().prop_map(|e| format!(
            "try {{ alert(missing_fn()); }} catch (err) {{ alert(err + '|' + {e}); }}"
        )),
        e().prop_map(|e| format!(
            "switch ({e}) {{ case 1: alert('one'); case 'a': alert('a'); \
             break; case true: alert('T'); default: alert('d'); }}"
        )),
        e().prop_map(|e| format!("function g(p) {{ var q = p; return q + 1; }} alert(g({e}));")),
        e().prop_map(|e| format!("o.b = {e}; alert(o.b); alert(o['b']++); alert(o.b);")),
        e().prop_map(|e| format!(
            "for (var k in o) {{ alert(k + ':' + o[k]); }} arr.push({e}); alert(arr.join('-'));"
        )),
        e().prop_map(|e| format!("var w = 0; do {{ w++; }} while (w < 2); alert(w + '' + {e});")),
        e().prop_map(|e| format!("eval('alert(' + {e} + ')');")),
        e().prop_map(|e| format!(
            "var mk = function (n) {{ return function () {{ return n + x; }}; }}; \
             alert(mk({e})());"
        )),
    ]
    .boxed()
}

/// Shared names the statement templates lean on.
const PRELUDE: &str = "var x = 0; var y = 0; var o = {a: 1}; var arr = [1, 2]; \
                       function f(q) { return q; }";

proptest! {
    /// Arbitrary (mostly invalid) source: identical reports, including
    /// parse/lex error strings.
    #[test]
    fn engines_agree_on_arbitrary_source(src in ".{0,200}") {
        assert_engines_agree(&src, 30_000);
    }

    /// Generated programs covering the full compiled statement surface.
    #[test]
    fn engines_agree_on_generated_programs(stmts in collection::vec(stmt_strategy(), 1..5)) {
        let src = format!("{PRELUDE} {}", stmts.join(" "));
        assert_engines_agree(&src, 60_000);
    }

    /// Packed payloads (the campaign-page shape the module cache is
    /// for): eval/unescape/fromCharCode layers must unpack identically.
    #[test]
    fn engines_agree_on_packed_payloads(
        text in "[a-zA-Z0-9 ]{1,40}",
        layers in 1u32..4,
    ) {
        let payload = format!("document.write('{text}'); alert('{text}');");
        assert_engines_agree(&pack_layers(&payload, layers), 120_000);
    }

    /// The budget-exhaustion point is bit-identical: for every budget,
    /// both engines stop after the same number of steps with the same
    /// error.
    #[test]
    fn engines_agree_on_budget_exhaustion_point(budget in 0u64..3000) {
        let src = "var i = 0; while (true) { i = i + 1; \
                   if (i % 7 == 0) { try { i[0](); } catch (e) {} } }";
        assert_engines_agree(src, budget);
    }
}

/// Warm cache sanity outside proptest: the second run of the same
/// payload through one store must record a cache lookup and still
/// produce the oracle report.
#[test]
fn warm_cache_reuses_modules_across_runs() {
    let payload = pack_layers("document.write('warm');", 2);
    let store = Arc::new(TestStore::default());
    let as_dyn: Arc<dyn ModuleStore> = store.clone();

    let first = Sandbox::new().with_module_store(as_dyn.clone()).run(&payload);
    let modules_after_first = store.0.lock().unwrap().len();
    let second = Sandbox::new().with_module_store(as_dyn).run(&payload);

    assert_eq!(observable(&first), observable(&second));
    // Outer script + each eval layer got cached once...
    assert!(modules_after_first >= 2, "expected outer + eval layers cached");
    // ...and the second run compiled nothing new.
    assert_eq!(store.0.lock().unwrap().len(), modules_after_first);
    assert!(second.vm_module_lookups >= 2);
    assert_eq!(first.written_html, "warm");
}
