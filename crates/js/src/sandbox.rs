//! Browser-shaped execution sandbox with an effect log.
//!
//! The sandbox gives a script the browser surface the traffic-exchange
//! malware corpus relies on — `document`, `window`, `navigator`,
//! `location`, `eval`, `unescape` — and records every externally
//! observable action as an [`Effect`]. Behavioural scanners and the
//! headless browser both consume the effect stream.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::compile::ModuleStore;
use crate::env::{Env, EnvRef};
use crate::interp::{
    call_prototype_method, display_value, EngineCtx, Host, Interp, DEFAULT_BUDGET,
};
use crate::parser::parse_program;
use crate::value::{ObjectData, Value};
use crate::vm::Vm;
use crate::JsError;

/// The `navigator.userAgent` every sandboxed script sees: a desktop
/// Firefox of the paper's crawl period.
const USER_AGENT: &str = "Mozilla/5.0 (X11; Linux x86_64; rv:38.0) Gecko/20100101 Firefox/38.0";

/// Which execution engine the sandbox drives.
///
/// Both engines produce bit-identical [`SandboxReport`]s (modulo the
/// `vm_*` instrumentation fields, which are zero on the tree-walk
/// path); the tree-walking interpreter survives as the differential-
/// testing oracle while the bytecode VM carries the scan hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JsEngine {
    /// The original AST-walking interpreter ([`crate::interp`]).
    TreeWalk,
    /// The bytecode compiler + stack VM ([`crate::compile`],
    /// [`crate::vm`]), optionally backed by a shared module cache.
    #[default]
    Vm,
}

impl JsEngine {
    /// Parses a CLI/config spelling of an engine name.
    pub fn parse(s: &str) -> Option<JsEngine> {
        match s {
            "vm" | "bytecode" => Some(JsEngine::Vm),
            "interp" | "interpreter" | "tree-walk" | "treewalk" => Some(JsEngine::TreeWalk),
            _ => None,
        }
    }

    /// Canonical name (round-trips through [`JsEngine::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            JsEngine::TreeWalk => "tree-walk",
            JsEngine::Vm => "vm",
        }
    }
}

/// An externally observable action taken by a script.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// `document.write(html)` — the written markup (concatenated per call).
    DocumentWrite(String),
    /// `document.createElement(tag)` followed by DOM insertion.
    ElementInserted {
        /// Lower-cased tag name.
        tag: String,
        /// Attributes set on the element before insertion.
        attrs: Vec<(String, String)>,
    },
    /// Navigation via `window.location`/`location.href` assignment.
    Navigate {
        /// Target URL.
        url: String,
    },
    /// `window.open(url)` — pop-up creation.
    Popup {
        /// Target URL ("" for about:blank).
        url: String,
    },
    /// `ExternalInterface.call(name, ...)` from Flash glue code.
    ExternalCall {
        /// Called function path, e.g. `AdFlash.onClick`.
        name: String,
        /// Stringified arguments.
        args: Vec<String>,
    },
    /// `addEventListener`/`on*` registration — fingerprinting scripts
    /// subscribe to `mousemove`/`keydown`/`scroll`.
    ListenerRegistered {
        /// Target description (`document`, `window`, element tag).
        target: String,
        /// Event name.
        event: String,
    },
    /// A layer of `eval` executed dynamically generated code.
    EvalLayer {
        /// Nesting depth (1 = first eval).
        depth: u32,
        /// Byte length of the evaluated code.
        code_len: usize,
    },
    /// `document.cookie = ...`.
    CookieSet(String),
    /// `alert(...)` / `confirm(...)`.
    Dialog(String),
    /// `setTimeout`/`setInterval` callback scheduled (and, in this model,
    /// executed immediately once).
    TimerScheduled,
}

/// Result of running a script in the sandbox.
#[derive(Debug, Clone, Default)]
pub struct SandboxReport {
    /// Ordered effect log.
    pub effects: Vec<Effect>,
    /// Markup accumulated through `document.write`, in write order.
    pub written_html: String,
    /// Errors raised during execution (script-level, non-fatal to the
    /// analysis).
    pub errors: Vec<String>,
    /// Interpreter steps consumed.
    pub steps_used: u64,
    /// Deepest `eval` nesting observed.
    pub max_eval_depth: u32,
    /// Bytecode instructions dispatched (zero on the tree-walk path).
    pub vm_instructions: u64,
    /// Module-cache lookups issued (zero on the tree-walk path or
    /// without a cache).
    pub vm_module_lookups: u64,
}

impl SandboxReport {
    /// True when any effect navigates or opens a window toward `needle`.
    pub fn navigates_to(&self, needle: &str) -> bool {
        self.effects.iter().any(|e| match e {
            Effect::Navigate { url } | Effect::Popup { url } => url.contains(needle),
            _ => false,
        })
    }

    /// All URLs the script tried to reach (navigations + popups).
    pub fn outbound_urls(&self) -> Vec<String> {
        self.effects
            .iter()
            .filter_map(|e| match e {
                Effect::Navigate { url } | Effect::Popup { url } => Some(url.clone()),
                _ => None,
            })
            .collect()
    }
}

/// Mutable browser state shared with natives during a run.
struct BrowserState {
    effects: Vec<Effect>,
    written_html: String,
    errors: Vec<String>,
    eval_depth: u32,
    max_eval_depth: u32,
    location: String,
    referrer: String,
}

/// A sandboxed script runner.
///
/// Construct, optionally configure the simulated environment
/// ([`Sandbox::with_location`], [`Sandbox::with_referrer`]), then call
/// [`Sandbox::run`]. The sandbox is reusable; each run gets a fresh
/// global scope and report.
pub struct Sandbox {
    budget: u64,
    location: String,
    referrer: String,
    engine: JsEngine,
    module_store: Option<Arc<dyn ModuleStore>>,
}

impl Default for Sandbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Sandbox {
    /// Creates a sandbox with the default budget.
    pub fn new() -> Self {
        Sandbox {
            budget: DEFAULT_BUDGET,
            location: "about:blank".into(),
            referrer: String::new(),
            engine: JsEngine::default(),
            module_store: None,
        }
    }

    /// Selects the execution engine (default: [`JsEngine::Vm`]).
    pub fn with_engine(mut self, engine: JsEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a shared compiled-module cache (VM engine only; the
    /// tree-walk path ignores it). Pages sharing a payload hash then
    /// skip the parse and compile entirely.
    pub fn with_module_store(mut self, store: Arc<dyn ModuleStore>) -> Self {
        self.module_store = Some(store);
        self
    }

    /// Sets the interpreter step budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the simulated `document.location`.
    pub fn with_location(mut self, url: impl Into<String>) -> Self {
        self.location = url.into();
        self
    }

    /// Sets the simulated `document.referrer`.
    pub fn with_referrer(mut self, referrer: impl Into<String>) -> Self {
        self.referrer = referrer.into();
        self
    }

    /// Parses and executes `src`, returning the effect report.
    ///
    /// Script errors (including parse errors) are captured in
    /// [`SandboxReport::errors`]; this method itself never fails.
    pub fn run(&mut self, src: &str) -> SandboxReport {
        let mut state = BrowserState {
            effects: Vec::new(),
            written_html: String::new(),
            errors: Vec::new(),
            eval_depth: 0,
            max_eval_depth: 0,
            location: self.location.clone(),
            referrer: self.referrer.clone(),
        };
        match self.engine {
            JsEngine::TreeWalk => {
                let mut interp = Interp::new(self.budget);
                let program = match parse_program(src) {
                    Ok(p) => p,
                    Err(e) => {
                        state.errors.push(e.to_string());
                        return finish(state, interp.steps_used, 0, 0);
                    }
                };
                let env = global_env(&state);
                let mut host = BrowserHost { state: &mut state };
                if let Err(e) = interp.run(&program, &env, &mut host) {
                    state.errors.push(e.to_string());
                }
                finish(state, interp.steps_used, 0, 0)
            }
            JsEngine::Vm => {
                // The VM parses lazily: a warm module-cache hit skips
                // the parse outright (an erroring source never enters
                // the cache, so parse errors still surface each run).
                let mut vm = Vm::new(self.budget, self.module_store.clone());
                let env = global_env(&state);
                let mut host = BrowserHost { state: &mut state };
                if let Err(e) = vm.run_source(src, &env, &mut host) {
                    state.errors.push(e.to_string());
                }
                finish(state, vm.steps_used, vm.instructions, vm.module_lookups)
            }
        }
    }
}

fn finish(
    state: BrowserState,
    steps_used: u64,
    vm_instructions: u64,
    vm_module_lookups: u64,
) -> SandboxReport {
    SandboxReport {
        effects: state.effects,
        written_html: state.written_html,
        errors: state.errors,
        steps_used,
        max_eval_depth: state.max_eval_depth,
        vm_instructions,
        vm_module_lookups,
    }
}

/// Builds the global scope with the browser object graph.
fn global_env(state: &BrowserState) -> EnvRef {
    let env = Env::global();
    let mut g = env.borrow_mut();

    // document
    let document = ObjectData::object();
    {
        let mut d = document.borrow_mut();
        d.class = "HTMLDocument".into();
        d.props.insert("write".into(), Value::Native("document.write"));
        d.props.insert("writeln".into(), Value::Native("document.writeln"));
        d.props.insert("createElement".into(), Value::Native("document.createElement"));
        d.props.insert("getElementById".into(), Value::Native("document.getElementById"));
        d.props
            .insert("getElementsByTagName".into(), Value::Native("document.getElementsByTagName"));
        d.props.insert("addEventListener".into(), Value::Native("document.addEventListener"));
        d.props.insert("referrer".into(), Value::Str(state.referrer.clone()));
        d.props.insert("cookie".into(), Value::Str(String::new()));
        let body = ObjectData::object();
        body.borrow_mut().class = "HTMLBodyElement".into();
        body.borrow_mut().props.insert("appendChild".into(), Value::Native("node.appendChild"));
        body.borrow_mut()
            .props
            .insert("insertBefore".into(), Value::Native("node.insertBefore"));
        d.props.insert("body".into(), Value::Object(body.clone()));
        d.props.insert("head".into(), Value::Object(body));
        let location = location_object(&state.location);
        d.props.insert("location".into(), Value::Object(location));
    }
    g.declare("document", Value::Object(document));

    // window — also the global `this`; location shared shape.
    let window = ObjectData::object();
    {
        let mut w = window.borrow_mut();
        w.class = "Window".into();
        w.props.insert("open".into(), Value::Native("window.open"));
        w.props.insert("addEventListener".into(), Value::Native("window.addEventListener"));
        w.props.insert("setTimeout".into(), Value::Native("setTimeout"));
        w.props.insert("setInterval".into(), Value::Native("setInterval"));
        w.props.insert("location".into(), Value::Object(location_object(&state.location)));
        w.props.insert("innerWidth".into(), Value::Num(1366.0));
        w.props.insert("innerHeight".into(), Value::Num(768.0));
    }
    g.declare("window", Value::Object(window.clone()));

    // navigator
    let navigator = ObjectData::object();
    {
        let mut n = navigator.borrow_mut();
        n.class = "Navigator".into();
        n.props.insert("userAgent".into(), Value::Str(USER_AGENT.into()));
        n.props.insert("language".into(), Value::Str("en-US".into()));
        n.props.insert("platform".into(), Value::Str("Linux x86_64".into()));
    }
    g.declare("navigator", Value::Object(navigator));

    // location as a bare global too.
    g.declare("location", Value::Object(location_object(&state.location)));

    // screen
    let screen = ObjectData::object();
    screen.borrow_mut().props.insert("width".into(), Value::Num(1366.0));
    screen.borrow_mut().props.insert("height".into(), Value::Num(768.0));
    g.declare("screen", Value::Object(screen));

    // Math (deterministic: random() is seeded constant-progression).
    let math = ObjectData::object();
    {
        let mut m = math.borrow_mut();
        m.props.insert("floor".into(), Value::Native("Math.floor"));
        m.props.insert("ceil".into(), Value::Native("Math.ceil"));
        m.props.insert("round".into(), Value::Native("Math.round"));
        m.props.insert("abs".into(), Value::Native("Math.abs"));
        m.props.insert("random".into(), Value::Native("Math.random"));
        m.props.insert("max".into(), Value::Native("Math.max"));
        m.props.insert("min".into(), Value::Native("Math.min"));
        m.props.insert("pow".into(), Value::Native("Math.pow"));
    }
    g.declare("Math", Value::Object(math));

    // String constructor object with fromCharCode.
    let string_ctor = ObjectData::object();
    string_ctor
        .borrow_mut()
        .props
        .insert("fromCharCode".into(), Value::Native("String.fromCharCode"));
    g.declare("String", Value::Object(string_ctor));

    // ExternalInterface (Flash glue).
    let ext = ObjectData::object();
    ext.borrow_mut().props.insert("call".into(), Value::Native("ExternalInterface.call"));
    g.declare("ExternalInterface", Value::Object(ext));

    // Free functions.
    for native in [
        "eval",
        "unescape",
        "escape",
        "decodeURIComponent",
        "encodeURIComponent",
        "atob",
        "btoa",
        "alert",
        "confirm",
        "setTimeout",
        "setInterval",
        "parseInt",
        "parseFloat",
        "isNaN",
        "Number",
        "Date",
        "Array",
        "Object",
    ] {
        g.declare(native, Value::Native(native_name(native)));
    }
    drop(g);
    env
}

fn location_object(url: &str) -> crate::value::ObjRef {
    let loc = ObjectData::object();
    let mut l = loc.borrow_mut();
    l.class = "Location".into();
    l.props.insert("href".into(), Value::Str(url.to_string()));
    l.props.insert("replace".into(), Value::Native("location.replace"));
    l.props.insert("assign".into(), Value::Native("location.assign"));
    let host = url.split("//").nth(1).map(|r| r.split('/').next().unwrap_or("")).unwrap_or("");
    l.props.insert("host".into(), Value::Str(host.to_string()));
    l.props.insert("hostname".into(), Value::Str(host.to_string()));
    drop(l);
    loc
}

/// Interns native-name strings so `Value::Native` can stay `&'static`.
fn native_name(name: &str) -> &'static str {
    match name {
        "eval" => "eval",
        "unescape" => "unescape",
        "escape" => "escape",
        "decodeURIComponent" => "decodeURIComponent",
        "encodeURIComponent" => "encodeURIComponent",
        "atob" => "atob",
        "btoa" => "btoa",
        "alert" => "alert",
        "confirm" => "confirm",
        "setTimeout" => "setTimeout",
        "setInterval" => "setInterval",
        "parseInt" => "parseInt",
        "parseFloat" => "parseFloat",
        "isNaN" => "isNaN",
        "Number" => "Number",
        "Date" => "Date",
        "Array" => "Array",
        "Object" => "Object",
        other => unreachable!("unregistered native {other}"),
    }
}

struct BrowserHost<'a> {
    state: &'a mut BrowserState,
}

impl BrowserHost<'_> {
    /// After a property write to a `location` object, scripts expect
    /// navigation; the interpreter cannot intercept plain property sets,
    /// so `location.href = url` is detected by the caller re-reading the
    /// object. Instead we expose explicit natives *and* scan for href
    /// mutation — see `Sandbox::run` effect extraction below.
    fn navigate(&mut self, url: String) {
        self.state.effects.push(Effect::Navigate { url });
    }
}

impl Host for BrowserHost<'_> {
    fn on_property_set(&mut self, class: &str, name: &str, value: &Value) {
        match (class, name) {
            ("Location", "href") | ("Window", "location") | ("HTMLDocument", "location") => {
                self.navigate(value.to_js_string());
            }
            ("HTMLDocument", "cookie") => {
                self.state.effects.push(Effect::CookieSet(value.to_js_string()));
            }
            _ => {}
        }
    }

    fn call_native(
        &mut self,
        cx: &mut dyn EngineCtx,
        env: &EnvRef,
        name: &str,
        this_val: Value,
        args: Vec<Value>,
    ) -> Result<Value, JsError> {
        if let Some(r) = call_prototype_method(name, &this_val, &args) {
            return r;
        }
        let arg_str = |i: usize| args.get(i).map(display_value).unwrap_or_default();
        match name {
            "document.write" | "document.writeln" => {
                let html = arg_str(0);
                self.state.written_html.push_str(&html);
                if name.ends_with("ln") {
                    self.state.written_html.push('\n');
                }
                self.state.effects.push(Effect::DocumentWrite(html));
                Ok(Value::Undefined)
            }
            "document.createElement" => {
                let tag = arg_str(0).to_ascii_lowercase();
                let el = ObjectData::object();
                {
                    let mut e = el.borrow_mut();
                    e.class = "Element".into();
                    e.props.insert("tagName".into(), Value::Str(tag.to_ascii_uppercase()));
                    e.props.insert("__tag".into(), Value::Str(tag));
                    e.props.insert("setAttribute".into(), Value::Native("node.setAttribute"));
                    e.props.insert("appendChild".into(), Value::Native("node.appendChild"));
                    e.props
                        .insert("addEventListener".into(), Value::Native("node.addEventListener"));
                    let style = ObjectData::object();
                    style.borrow_mut().class = "CSSStyleDeclaration".into();
                    e.props.insert("style".into(), Value::Object(style));
                }
                Ok(Value::Object(el))
            }
            "node.setAttribute" => {
                if let Value::Object(o) = &this_val {
                    let key = arg_str(0).to_ascii_lowercase();
                    o.borrow_mut().props.insert(key, Value::Str(arg_str(1)));
                }
                Ok(Value::Undefined)
            }
            "node.appendChild" | "node.insertBefore" => {
                // Inserting a created element makes it "real": log it with
                // its collected attributes.
                if let Some(Value::Object(child)) = args.first() {
                    let data = child.borrow();
                    let tag = data
                        .props
                        .get("__tag")
                        .map(Value::to_js_string)
                        .unwrap_or_else(|| "div".into());
                    let mut attrs: Vec<(String, String)> = Vec::new();
                    for (k, v) in &data.props {
                        if matches!(
                            k.as_str(),
                            "src" | "href" | "width" | "height" | "style" | "id" | "name"
                                | "frameborder" | "scrolling" | "allowtransparency"
                        ) {
                            let sv = match v {
                                Value::Object(style) => {
                                    // Serialize style object props.
                                    style
                                        .borrow()
                                        .props
                                        .iter()
                                        .filter_map(|(p, pv)| {
                                            pv.as_str().map(|s| format!("{p}:{s}"))
                                        })
                                        .collect::<Vec<_>>()
                                        .join(";")
                                }
                                other => other.to_js_string(),
                            };
                            if !sv.is_empty() {
                                attrs.push((k.clone(), sv));
                            }
                        }
                    }
                    self.state.effects.push(Effect::ElementInserted { tag, attrs });
                }
                Ok(args.into_iter().next().unwrap_or(Value::Undefined))
            }
            "document.getElementById" | "document.getElementsByTagName" => {
                // Return a permissive stub element so scripts keep going.
                let el = ObjectData::object();
                {
                    let mut e = el.borrow_mut();
                    e.class = "Element".into();
                    e.props.insert("appendChild".into(), Value::Native("node.appendChild"));
                    e.props.insert("setAttribute".into(), Value::Native("node.setAttribute"));
                    e.props
                        .insert("addEventListener".into(), Value::Native("node.addEventListener"));
                    e.props.insert("parentNode".into(), Value::Native("node.appendChild"));
                    let style = ObjectData::object();
                    e.props.insert("style".into(), Value::Object(style));
                    e.props.insert("length".into(), Value::Num(1.0));
                }
                Ok(Value::Object(el))
            }
            "document.addEventListener" | "window.addEventListener" | "node.addEventListener" => {
                let target = match name {
                    "document.addEventListener" => "document",
                    "window.addEventListener" => "window",
                    _ => "element",
                };
                self.state.effects.push(Effect::ListenerRegistered {
                    target: target.into(),
                    event: arg_str(0),
                });
                // Immediately invoke the handler once with a stub event so
                // behavioural analysis sees into it (Rozzle-style forced
                // execution, cheap variant).
                if let Some(Value::Function(def)) = args.get(1) {
                    let event = ObjectData::object();
                    event.borrow_mut().props.insert("type".into(), Value::Str(arg_str(0)));
                    let _ = cx.call_function_value(
                        self,
                        def,
                        Value::Undefined,
                        vec![Value::Object(event)],
                    );
                }
                Ok(Value::Undefined)
            }
            "window.open" => {
                let url = arg_str(0);
                self.state.effects.push(Effect::Popup { url });
                // Return a window-ish stub.
                let w = ObjectData::object();
                w.borrow_mut().class = "Window".into();
                Ok(Value::Object(w))
            }
            "location.replace" | "location.assign" => {
                self.navigate(arg_str(0));
                Ok(Value::Undefined)
            }
            "ExternalInterface.call" => {
                let fname = arg_str(0);
                let rest: Vec<String> = args.iter().skip(1).map(display_value).collect();
                self.state.effects.push(Effect::ExternalCall { name: fname, args: rest });
                Ok(Value::Undefined)
            }
            "eval" => {
                let code = arg_str(0);
                self.state.eval_depth += 1;
                self.state.max_eval_depth = self.state.max_eval_depth.max(self.state.eval_depth);
                self.state
                    .effects
                    .push(Effect::EvalLayer { depth: self.state.eval_depth, code_len: code.len() });
                // Evaluated code runs in the *caller's* scope so that
                // definitions unpacked out of obfuscation layers (e.g.
                // the Flash glue's `AdFlash` object) persist into the
                // surrounding script. The engine owns parsing so the VM
                // can content-hash the layer into its module cache.
                let result = match cx.run_program(self, &code, env) {
                    Ok(()) => Ok(Value::Undefined),
                    Err(JsError::BudgetExhausted) => Err(JsError::BudgetExhausted),
                    Err(e @ (JsError::Parse(_) | JsError::Lex(_))) => {
                        self.state.errors.push(format!("eval parse: {e}"));
                        Ok(Value::Undefined)
                    }
                    Err(e) => {
                        self.state.errors.push(format!("eval: {e}"));
                        Ok(Value::Undefined)
                    }
                };
                self.state.eval_depth -= 1;
                result
            }
            "unescape" | "decodeURIComponent" => {
                Ok(Value::Str(percent_decode(&arg_str(0))))
            }
            "escape" | "encodeURIComponent" => Ok(Value::Str(percent_encode(&arg_str(0)))),
            "atob" => Ok(Value::Str(base64_decode(&arg_str(0)))),
            "btoa" => Ok(Value::Str(base64_encode(&arg_str(0)))),
            "String.fromCharCode" => {
                let s: String = args
                    .iter()
                    .filter_map(|v| char::from_u32(v.to_number() as u32))
                    .collect();
                Ok(Value::Str(s))
            }
            "alert" | "confirm" => {
                self.state.effects.push(Effect::Dialog(arg_str(0)));
                Ok(Value::Bool(true))
            }
            "setTimeout" | "setInterval" => {
                self.state.effects.push(Effect::TimerScheduled);
                // Run the callback once, immediately — time is virtual.
                if let Some(Value::Function(def)) = args.first() {
                    let _ = cx.call_function_value(self, def, Value::Undefined, Vec::new());
                } else if let Some(Value::Str(code)) = args.first() {
                    let code = code.clone();
                    return self.call_native(
                        cx,
                        env,
                        "eval",
                        Value::Undefined,
                        vec![Value::Str(code)],
                    );
                }
                Ok(Value::Num(1.0))
            }
            "Math.floor" => Ok(Value::Num(args.first().map(|v| v.to_number()).unwrap_or(f64::NAN).floor())),
            "Math.ceil" => Ok(Value::Num(args.first().map(|v| v.to_number()).unwrap_or(f64::NAN).ceil())),
            "Math.round" => Ok(Value::Num(args.first().map(|v| v.to_number()).unwrap_or(f64::NAN).round())),
            "Math.abs" => Ok(Value::Num(args.first().map(|v| v.to_number()).unwrap_or(f64::NAN).abs())),
            "Math.random" => Ok(Value::Num(0.42)),
            "Math.max" => Ok(Value::Num(
                args.iter().map(|v| v.to_number()).fold(f64::NEG_INFINITY, f64::max),
            )),
            "Math.min" => Ok(Value::Num(
                args.iter().map(|v| v.to_number()).fold(f64::INFINITY, f64::min),
            )),
            "Math.pow" => {
                let a = args.first().map(|v| v.to_number()).unwrap_or(f64::NAN);
                let b = args.get(1).map(|v| v.to_number()).unwrap_or(f64::NAN);
                Ok(Value::Num(a.powf(b)))
            }
            "Date" => {
                // `new Date()` / `Date()` — virtual epoch constant; `1*new
                // Date()` in the Google Analytics snippet coerces via NaN
                // otherwise.
                let d = ObjectData::object();
                d.borrow_mut().class = "Date".into();
                d.borrow_mut().props.insert("getTime".into(), Value::Native("Math.random"));
                Ok(Value::Object(d))
            }
            "Array" => Ok(Value::Object(ObjectData::array(args))),
            "Object" => Ok(Value::Object(ObjectData::object())),
            other => {
                // Unknown host function: benign no-op, recorded as error
                // for visibility.
                self.state.errors.push(format!("call to unknown native {other}"));
                Ok(Value::Undefined)
            }
        }
    }
}

/// Percent-decodes `%XX` and `%uXXXX` sequences, JS `unescape` style.
/// `%uXXXX` units are UTF-16 code units: surrogate pairs are recombined,
/// lone surrogates pass through verbatim.
pub fn percent_decode(s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    // First pass: decode into UTF-16 code units.
    let mut units: Vec<u16> = Vec::with_capacity(s.len());
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '%' {
            if i + 5 < chars.len() && (chars[i + 1] == 'u' || chars[i + 1] == 'U') {
                let hex: String = chars[i + 2..i + 6].iter().collect();
                if let Ok(code) = u16::from_str_radix(&hex, 16) {
                    units.push(code);
                    i += 6;
                    continue;
                }
            }
            if i + 2 < chars.len() {
                let hex: String = chars[i + 1..i + 3].iter().collect();
                if let Ok(code) = u16::from_str_radix(&hex, 16) {
                    units.push(code);
                    i += 3;
                    continue;
                }
            }
        }
        let mut buf = [0u16; 2];
        units.extend_from_slice(chars[i].encode_utf16(&mut buf));
        i += 1;
    }
    // Second pass: UTF-16 → string, replacing lone surrogates.
    String::from_utf16_lossy(&units)
}

/// Percent-encodes every non-alphanumeric UTF-16 code unit, JS `escape`
/// style: Latin-1 units as `%XX`, the rest (including each half of a
/// surrogate pair) as `%uXXXX`.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for c in s.chars() {
        if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '*' | '@' | '/' | '+') {
            out.push(c);
            continue;
        }
        let mut buf = [0u16; 2];
        for unit in c.encode_utf16(&mut buf) {
            if *unit < 256 {
                out.push_str(&format!("%{:02X}", unit));
            } else {
                out.push_str(&format!("%u{:04X}", unit));
            }
        }
    }
    out
}

const B64: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Base64-encodes a string's bytes (`btoa`).
pub fn base64_encode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [chunk[0], *chunk.get(1).unwrap_or(&0), *chunk.get(2).unwrap_or(&0)];
        let n = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 { B64[(n >> 6) as usize & 63] as char } else { '=' });
        out.push(if chunk.len() > 2 { B64[n as usize & 63] as char } else { '=' });
    }
    out
}

/// Base64-decodes into a string (`atob`); invalid input decodes to the
/// valid prefix, matching lenient browser behaviour.
pub fn base64_decode(s: &str) -> String {
    let mut table = BTreeMap::new();
    for (i, b) in B64.iter().enumerate() {
        table.insert(*b, i as u32);
    }
    let clean: Vec<u32> =
        s.bytes().filter(|b| *b != b'=').filter_map(|b| table.get(&b).copied()).collect();
    let mut bytes = Vec::with_capacity(clean.len() * 3 / 4);
    for chunk in clean.chunks(4) {
        if chunk.len() < 2 {
            break;
        }
        let n = chunk.iter().enumerate().fold(0u32, |acc, (i, v)| acc | (v << (18 - 6 * i)));
        bytes.push((n >> 16) as u8);
        if chunk.len() > 2 {
            bytes.push((n >> 8) as u8);
        }
        if chunk.len() > 3 {
            bytes.push(n as u8);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_write_logged() {
        let mut sb = Sandbox::new();
        let r = sb.run("document.write('<b>x</b>');");
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.written_html, "<b>x</b>");
        assert_eq!(r.effects.len(), 1);
    }

    #[test]
    fn dynamic_iframe_injection_via_create_element() {
        let mut sb = Sandbox::new();
        let r = sb.run(
            r#"
            var f = document.createElement('iframe');
            f.src = 'http://malicious.example/x';
            f.width = 1;
            f.height = 1;
            document.body.appendChild(f);
            "#,
        );
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        let inserted = r.effects.iter().find_map(|e| match e {
            Effect::ElementInserted { tag, attrs } => Some((tag.clone(), attrs.clone())),
            _ => None,
        });
        let (tag, attrs) = inserted.expect("iframe inserted");
        assert_eq!(tag, "iframe");
        assert!(attrs.iter().any(|(k, v)| k == "src" && v.contains("malicious.example")));
        assert!(attrs.iter().any(|(k, v)| k == "width" && v == "1"));
    }

    #[test]
    fn window_open_is_popup() {
        let mut sb = Sandbox::new();
        let r = sb.run("window.open('http://ads.example/pop');");
        assert!(r.navigates_to("ads.example"));
        assert!(matches!(&r.effects[0], Effect::Popup { url } if url.contains("pop")));
    }

    #[test]
    fn location_replace_navigates() {
        let mut sb = Sandbox::new();
        let r = sb.run("window.location.replace('http://next.example/');");
        assert!(r.navigates_to("next.example"));
    }

    #[test]
    fn location_href_assignment_navigates() {
        // The deceptive-download payload in the paper's §V-B uses
        // `window.location.href = "http://...downloadAs=Flash-Player.exe"`.
        let mut sb = Sandbox::new();
        let r = sb.run("window.location.href = 'http://dl.example/c?downloadAs=Flash-Player.exe';");
        assert!(r.navigates_to("Flash-Player.exe"));
    }

    #[test]
    fn window_location_whole_object_assignment_navigates() {
        let mut sb = Sandbox::new();
        let r = sb.run("window.location = 'http://redirect.example/';");
        assert!(r.navigates_to("redirect.example"));
    }

    #[test]
    fn cookie_write_recorded() {
        let mut sb = Sandbox::new();
        let r = sb.run("document.cookie = 'dmCookieBar=1';");
        assert!(r.effects.iter().any(|e| matches!(e, Effect::CookieSet(c) if c.contains("dmCookieBar"))));
    }

    #[test]
    fn eval_unescape_layer_unpacks() {
        // eval(unescape('%61%6C%65%72%74%28%31%29')) == alert(1)
        let mut sb = Sandbox::new();
        let r = sb.run(r#"eval(unescape('%61%6C%65%72%74%28%31%29'));"#);
        assert!(r.effects.iter().any(|e| matches!(e, Effect::EvalLayer { depth: 1, .. })));
        assert!(r.effects.iter().any(|e| matches!(e, Effect::Dialog(d) if d == "1")));
        assert_eq!(r.max_eval_depth, 1);
    }

    #[test]
    fn from_char_code_decoding() {
        let mut sb = Sandbox::new();
        // "alert('x')"
        let r = sb.run(
            "eval(String.fromCharCode(97,108,101,114,116,40,39,120,39,41));",
        );
        assert!(r.effects.iter().any(|e| matches!(e, Effect::Dialog(d) if d == "x")));
    }

    #[test]
    fn external_interface_calls_recorded() {
        let mut sb = Sandbox::new();
        let r = sb.run("ExternalInterface.call('AdFlash.onClick'); ExternalInterface.call('window.NqPnfu');");
        let calls: Vec<&str> = r
            .effects
            .iter()
            .filter_map(|e| match e {
                Effect::ExternalCall { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(calls, vec!["AdFlash.onClick", "window.NqPnfu"]);
    }

    #[test]
    fn fingerprinting_listener_registration() {
        let mut sb = Sandbox::new();
        let r = sb.run("document.addEventListener('mousemove', function(e) { });");
        assert!(r
            .effects
            .iter()
            .any(|e| matches!(e, Effect::ListenerRegistered { event, .. } if event == "mousemove")));
    }

    #[test]
    fn listener_body_is_forced() {
        // Behaviour hidden in an event handler must still surface.
        let mut sb = Sandbox::new();
        let r = sb.run(
            "document.addEventListener('click', function(e) { window.open('http://pop.example/'); });",
        );
        assert!(r.navigates_to("pop.example"));
    }

    #[test]
    fn set_timeout_callback_runs() {
        let mut sb = Sandbox::new();
        let r = sb.run("setTimeout(function() { alert('later'); }, 5000);");
        assert!(r.effects.iter().any(|e| matches!(e, Effect::Dialog(d) if d == "later")));
        assert!(r.effects.contains(&Effect::TimerScheduled));
    }

    #[test]
    fn set_timeout_string_evals() {
        let mut sb = Sandbox::new();
        let r = sb.run("setTimeout(\"alert('s')\", 0);");
        assert!(r.effects.iter().any(|e| matches!(e, Effect::Dialog(d) if d == "s")));
    }

    #[test]
    fn parse_error_is_captured_not_panicking() {
        let mut sb = Sandbox::new();
        let r = sb.run("this is not (valid");
        assert!(!r.errors.is_empty());
    }

    #[test]
    fn infinite_loop_bounded() {
        let mut sb = Sandbox::new().with_budget(20_000);
        let r = sb.run("while (true) { var x = 1; }");
        assert!(r.errors.iter().any(|e| e.contains("budget")));
    }

    #[test]
    fn navigator_user_agent_visible() {
        let mut sb = Sandbox::new();
        let r = sb.run("alert(navigator.userAgent);");
        assert!(r.effects.iter().any(|e| matches!(e, Effect::Dialog(d) if d == USER_AGENT)));
    }

    #[test]
    fn percent_codec_round_trip() {
        let original = "var x = 'héllo <b>';";
        assert_eq!(percent_decode(&percent_encode(original)), original);
    }

    #[test]
    fn base64_round_trip() {
        for s in ["", "a", "ab", "abc", "hello world!", "p@ss%w0rd"] {
            assert_eq!(base64_decode(&base64_encode(s)), s, "round-trip failed for {s:?}");
        }
    }

    #[test]
    fn atob_in_script() {
        let mut sb = Sandbox::new();
        let r = sb.run(&format!("alert(atob('{}'));", base64_encode("secret")));
        assert!(r.effects.iter().any(|e| matches!(e, Effect::Dialog(d) if d == "secret")));
    }

    #[test]
    fn nested_eval_depth_tracked() {
        let inner = "alert('deep')";
        let layer1 = format!("eval({:?});", inner);
        let layer2 = format!("eval({:?});", layer1);
        let mut sb = Sandbox::new();
        let r = sb.run(&layer2);
        assert_eq!(r.max_eval_depth, 2);
        assert!(r.effects.iter().any(|e| matches!(e, Effect::Dialog(d) if d == "deep")));
    }

    #[test]
    fn google_analytics_pattern_runs_clean() {
        // The paper's §V-E false positive: the GA bootstrap must execute
        // without malicious effects.
        let mut sb = Sandbox::new();
        let r = sb.run(
            r#"
            (function(i, s, o, g, r) {
                i['GoogleAnalyticsObject'] = r;
                i[r] = i[r] || function() {};
                i[r].l = 1;
            })(window, document, 'script', '//www.google-analytics.com/analytics.js', 'ga');
            "#,
        );
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert!(r.outbound_urls().is_empty());
        assert!(r.written_html.is_empty());
    }
}
