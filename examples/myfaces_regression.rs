//! The paper's motivating example end to end: the MyFaces-1130-style character-range
//! regression, analyzed with the full regression-cause algorithm (suspected / expected /
//! regression / candidate difference sets) through a session [`rprism::Engine`].
//!
//! Run with `cargo run --example myfaces_regression`.

use rprism::Engine;
use rprism_workloads::myfaces;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = myfaces::scenario();
    println!("{}: {}\n", scenario.name, scenario.description);

    // Trace the four runs once; the prepared handles carry the scenario's analysis mode
    // and cache every derived artifact across the analysis below.
    let traces = scenario.trace_all()?;
    println!(
        "outputs under the regressing request: original {:?}, new {:?}\n",
        traces.old_regressing_output(),
        traces.new_regressing_output()
    );

    let engine = Engine::new();
    let report = engine.analyze(&traces.traces)?;
    println!("{}", engine.render_report(&report, &traces.traces));
    Ok(())
}
