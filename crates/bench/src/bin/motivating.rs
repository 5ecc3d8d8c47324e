//! Reproduces the worked example of §3.4 / Fig. 13: runs the MyFaces-1130-style motivating
//! scenario, prints how the views-based differencing localizes the regression, and shows
//! the final regression-cause report with dynamic state.
//!
//! Run with `cargo run -p rprism-bench --bin motivating --release`.

use rprism::Engine;
use rprism_regress::RenderOptions;
use rprism_views::ViewKind;
use rprism_workloads::myfaces;

fn main() {
    let scenario = myfaces::scenario();
    println!(
        "Motivating example: {}\n{}\n",
        scenario.name, scenario.description
    );

    // One session drives the whole worked example: the view-count inspection, the
    // Fig. 13 semantic diff and the §4.2 analysis all reuse the same prepared handles.
    let engine = Engine::builder()
        .render_options(RenderOptions {
            list_unrelated_sequences: true,
            ..RenderOptions::default()
        })
        .build();
    let traces = scenario.trace_all().expect("scenario traces");
    println!(
        "trace sizes: old/regressing = {}, new/regressing = {} entries",
        traces.traces.old_regressing.len(),
        traces.traces.new_regressing.len()
    );
    println!(
        "outputs under the regressing test: old = {:?}, new = {:?}\n",
        traces.old_regressing_output(),
        traces.new_regressing_output()
    );

    // The views web of the original version (Fig. 2: thread view, method views, target
    // object views) — built once inside the prepared handle and reused by the diff and
    // the analysis below.
    let web = traces.traces.old_regressing.web();
    let counts = web.count_by_kind();
    println!(
        "views of the original trace: {} total ({} thread, {} method, {} target-object, {} active-object)",
        counts.total(),
        counts.thread,
        counts.method,
        counts.target_object,
        counts.active_object
    );
    for view in web.views_of_kind(ViewKind::TargetObject) {
        if let Some(rep) = &view.representative {
            if rep.class.as_str() == "NumericEntityUtil" {
                println!("  target object view for {rep}: {} entries", view.len());
            }
        }
    }
    println!();

    // The semantic diff of Fig. 13 (old vs new under the regressing test).
    let diff = engine
        .diff(&traces.traces.old_regressing, &traces.traces.new_regressing)
        .expect("views-based differencing never fails");
    println!(
        "{}",
        diff.render(
            &traces.traces.old_regressing,
            &traces.traces.new_regressing,
            6
        )
    );

    // The full regression-cause analysis (§4.2), over the same prepared handles — the
    // suspected comparison reuses the diff artifacts already built above.
    let report = engine.analyze(&traces.traces).expect("analysis succeeds");
    println!("{}", engine.render_report(&report, &traces.traces));
}
