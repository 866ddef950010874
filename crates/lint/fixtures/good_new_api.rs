// lint-fixture: path=crates/parallel/src/runner.rs expect=clean
//! Known-good: building searches through the unified-API constructors
//! (qualified by their type, or as builder methods) trips no rule.

pub fn build_specs() {
    let a = SearchSpec::nested(2).build();
    let b = AlgorithmSpec::uct(UctConfig::default());
    let c = builder.nested(3);
    let _ = (a, b, c);
}
