//! Translation validation — the executable stand-in for CompCertX's
//! correctness proof.
//!
//! The Coq CompCertX proves once and for all that compilation preserves
//! per-function semantics over the layer machine. Without a proof
//! assistant, we validate each compilation instead: for every function,
//! the ClightX interpretation and the compiled assembly are run over the
//! *same* underlay interface, environment contexts, and argument vectors,
//! and must produce identical logs and return values — i.e. the compiled
//! code is checked to be a strategy-equivalent implementation
//! (`⟦CompCertX(f)⟧ ≤_id ⟦f⟧` and conversely, on the explored contexts).
//! A validated compilation yields a [`CompiledModule`] carrying a
//! [`Certificate`] with one `TranslationValidation` obligation per
//! function.

use std::collections::BTreeMap;

use ccal_clightx::ast::CModule;
use ccal_clightx::interp::module_from_lowered;
use ccal_core::calculus::{Certificate, LayerError, Obligation, Rule};
use ccal_core::env::EnvContext;
use ccal_core::id::Pid;
use ccal_core::layer::LayerInterface;
use ccal_core::machine::LayerMachine;
use ccal_core::module::Module;
use ccal_core::sim::SimRelation;
use ccal_core::val::Val;
use ccal_machine::asm::AsmModule;

use crate::compile::{compile_module, CompileError};

/// A validated compilation: the source, the produced assembly, both as
/// installable core modules, and the validation certificate.
#[derive(Debug, Clone)]
pub struct CompiledModule {
    /// The (lowered) source module.
    pub source: CModule,
    /// The compiled assembly.
    pub asm: AsmModule,
    /// The source as a core module (interpreted execution).
    pub c_module: Module,
    /// The assembly as a core module (compiled execution).
    pub asm_module: Module,
    /// One `TranslationValidation` obligation per function.
    pub certificate: Certificate,
}

/// Options for validation runs.
#[derive(Debug, Clone)]
pub struct ValidateOptions {
    /// Environment contexts to run under.
    pub contexts: Vec<EnvContext>,
    /// Argument vectors per function name (functions without an entry are
    /// exercised on a default integer workload matching their arity).
    pub workloads: BTreeMap<String, Vec<Vec<Val>>>,
    /// The participant to run as.
    pub pid: Pid,
    /// Step budget per run.
    pub fuel: u64,
}

impl ValidateOptions {
    /// Creates options from a context family.
    pub fn new(contexts: Vec<EnvContext>) -> Self {
        Self {
            contexts,
            workloads: BTreeMap::new(),
            pid: Pid(0),
            fuel: LayerMachine::DEFAULT_FUEL,
        }
    }

    /// Sets the workload for one function.
    pub fn with_workload(mut self, func: &str, args: Vec<Vec<Val>>) -> Self {
        self.workloads.insert(func.to_owned(), args);
        self
    }

    fn args_for(&self, func: &str, arity: usize) -> Vec<Vec<Val>> {
        if let Some(w) = self.workloads.get(func) {
            return w.clone();
        }
        // Default integer workload: a few small vectors of the right arity.
        [0_i64, 1, 2, 7]
            .iter()
            .map(|&base| (0..arity).map(|i| Val::Int(base + i as i64)).collect())
            .collect()
    }
}

/// Compiles `source` (already lowered and checked) and validates every
/// function against its interpretation over `underlay`.
///
/// # Errors
///
/// * [`LayerError::Machine`] wrapping a [`CompileError`] rendering if
///   compilation fails;
/// * [`LayerError::Mismatch`] with the disagreeing function/context if
///   validation fails.
pub fn compile_and_validate(
    name: &str,
    source: &CModule,
    underlay: &LayerInterface,
    opts: &ValidateOptions,
) -> Result<CompiledModule, LayerError> {
    let asm = compile_module(source).map_err(|e: CompileError| {
        LayerError::Machine(ccal_core::machine::MachineError::Stuck(format!(
            "compilation failed: {e}"
        )))
    })?;
    let c_module = module_from_lowered(&format!("{name}.c"), source);
    let asm_module = asm.as_core_module(&format!("{name}.s"));
    let c_iface = c_module.install(underlay)?;
    let asm_iface = asm_module.install(underlay)?;
    let mut certificate = Certificate::new();
    let relation = SimRelation::identity();
    for func in source.iter() {
        let args_family = opts.args_for(&func.name, func.params.len());
        let mut cases_checked = 0;
        let mut cases_skipped = 0;
        for (ci, env) in opts.contexts.iter().enumerate() {
            for args in &args_family {
                let mut c_machine =
                    LayerMachine::new(c_iface.clone(), opts.pid, env.clone()).with_fuel(opts.fuel);
                let mut asm_machine = LayerMachine::new(asm_iface.clone(), opts.pid, env.clone())
                    .with_fuel(opts.fuel);
                let c_res = c_machine.call_prim(&func.name, args);
                let asm_res = asm_machine.call_prim(&func.name, args);
                match (c_res, asm_res) {
                    (Ok(cv), Ok(av)) => {
                        if cv != av {
                            return Err(LayerError::Mismatch {
                                expected: format!("{cv} (source semantics)"),
                                found: format!("{av} (compiled semantics)"),
                                context: format!(
                                    "translation validation of `{}`, context #{ci}, args {args:?}",
                                    func.name
                                ),
                            });
                        }
                        if !relation.holds(asm_machine.log(), c_machine.log()) {
                            return Err(LayerError::Mismatch {
                                expected: c_machine.log().to_string(),
                                found: asm_machine.log().to_string(),
                                context: format!(
                                    "translation validation log of `{}`, context #{ci}",
                                    func.name
                                ),
                            });
                        }
                        certificate.probes.push(opts.pid, asm_machine.log().clone());
                        cases_checked += 1;
                    }
                    (Err(ce), Err(ae)) => {
                        // Both failed: accept only matching failure classes
                        // (e.g. both stuck on the same bad input, or both in
                        // an invalid context).
                        let same_class = std::mem::discriminant(&ce) == std::mem::discriminant(&ae);
                        if !same_class {
                            return Err(LayerError::Mismatch {
                                expected: format!("same failure class; source: {ce}"),
                                found: format!("compiled: {ae}"),
                                context: format!(
                                    "translation validation of `{}`, context #{ci}, args {args:?}",
                                    func.name
                                ),
                            });
                        }
                        cases_skipped += 1;
                    }
                    (Ok(_), Err(ae)) => {
                        return Err(LayerError::Mismatch {
                            expected: "compiled code to succeed like the source".to_owned(),
                            found: format!("compiled error: {ae}"),
                            context: format!(
                                "translation validation of `{}`, context #{ci}, args {args:?}",
                                func.name
                            ),
                        });
                    }
                    (Err(ce), Ok(_)) => {
                        return Err(LayerError::Mismatch {
                            expected: "source to succeed like the compiled code".to_owned(),
                            found: format!("source error: {ce}"),
                            context: format!(
                                "translation validation of `{}`, context #{ci}, args {args:?}",
                                func.name
                            ),
                        });
                    }
                }
            }
        }
        certificate.push(Obligation {
            rule: Rule::TranslationValidation,
            description: format!(
                "CompCertX(`{}`) ≤_id ⟦{0}⟧_C over {}",
                func.name, underlay.name
            ),
            cases_checked,
            cases_skipped,
            cases_reduced: 0,
        });
    }
    Ok(CompiledModule {
        source: source.clone(),
        asm,
        c_module,
        asm_module,
        certificate,
    })
}

/// One-call pipeline: parse, lower, check, compile and validate ClightX
/// source text over an underlay, returning the validated compilation.
///
/// # Errors
///
/// Front-end errors are wrapped as machine errors; validation errors as
/// [`LayerError::Mismatch`].
pub fn compcertx(
    name: &str,
    src: &str,
    underlay: &LayerInterface,
    opts: &ValidateOptions,
) -> Result<CompiledModule, LayerError> {
    let surface = ccal_clightx::parser::parse_module(src).map_err(|e| {
        LayerError::Machine(ccal_core::machine::MachineError::Stuck(format!("{e}")))
    })?;
    let lowered = ccal_clightx::lower::lower_module(&surface);
    ccal_clightx::check::check_module(&lowered).map_err(|es| {
        LayerError::Machine(ccal_core::machine::MachineError::Stuck(format!(
            "static checks failed: {} error(s)",
            es.len()
        )))
    })?;
    compile_and_validate(name, &lowered, underlay, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::contexts::ContextGen;
    use ccal_core::event::EventKind;
    use ccal_core::layer::PrimSpec;

    fn tick_iface() -> LayerInterface {
        LayerInterface::builder("L-tick")
            .prim(PrimSpec::atomic("tick", |ctx, _| {
                ctx.emit(EventKind::Prim("tick".into(), vec![]));
                let n = ctx
                    .log
                    .iter()
                    .filter(|e| matches!(&e.kind, EventKind::Prim(p, _) if p == "tick"))
                    .count();
                Ok(Val::Int(n as i64))
            }))
            .build()
    }

    fn opts() -> ValidateOptions {
        ValidateOptions::new(
            ContextGen::new(vec![Pid(0), Pid(1)])
                .with_schedule_len(2)
                .contexts(),
        )
    }

    #[test]
    fn validates_pure_functions() {
        let iface = LayerInterface::builder("L").build();
        let compiled = compcertx(
            "M",
            "int f(int x) { int y = x * 2; while (y > 10) { y = y - 3; } return y; }",
            &iface,
            &opts(),
        )
        .unwrap();
        assert!(compiled.certificate.total_cases() > 0);
        assert_eq!(compiled.asm.fn_names(), vec!["f"]);
    }

    #[test]
    fn validates_functions_with_primitive_calls() {
        let compiled = compcertx(
            "M",
            "int f() { int a = tick(); int b = tick(); return a + b; }",
            &tick_iface(),
            &opts(),
        )
        .unwrap();
        let ob = &compiled.certificate.obligations()[0];
        assert_eq!(ob.rule, Rule::TranslationValidation);
        assert!(ob.cases_checked > 0);
    }

    #[test]
    fn validates_division_failure_parity() {
        // Division by zero is stuck in both semantics — matching failure
        // classes are accepted (skipped), not errors.
        let iface = LayerInterface::builder("L").build();
        let compiled = compcertx(
            "M",
            "int f(int x) { return 10 / x; }",
            &iface,
            &ValidateOptions::new(opts().contexts)
                .with_workload("f", vec![vec![Val::Int(0)], vec![Val::Int(2)]]),
        )
        .unwrap();
        let ob = &compiled.certificate.obligations()[0];
        assert!(ob.cases_skipped > 0, "x=0 skipped as matching failure");
        assert!(ob.cases_checked > 0, "x=2 validated");
    }

    #[test]
    fn detects_a_miscompilation() {
        // Sabotage: compile one function but validate against different
        // source — the validator must notice.
        use ccal_clightx::lower::lower_module;
        use ccal_clightx::parser::parse_module;
        let good = lower_module(&parse_module("int f(int x) { return x + 1; }").unwrap());
        let bad = lower_module(&parse_module("int f(int x) { return x + 2; }").unwrap());
        let iface = LayerInterface::builder("L").build();
        let asm = compile_module(&bad).unwrap();
        // Hand-roll the comparison the validator performs.
        let c_iface = module_from_lowered("c", &good).install(&iface).unwrap();
        let a_iface = asm.as_core_module("s").install(&iface).unwrap();
        let env = opts().contexts.remove(0);
        let mut cm = LayerMachine::new(c_iface, Pid(0), env.clone());
        let mut am = LayerMachine::new(a_iface, Pid(0), env);
        let cv = cm.call_prim("f", &[Val::Int(1)]).unwrap();
        let av = am.call_prim("f", &[Val::Int(1)]).unwrap();
        assert_ne!(cv, av, "sabotaged compilation differs observably");
    }
}
