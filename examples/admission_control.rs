//! Admission control with uncertainty (§6.5.3 of the paper).
//!
//! ```sh
//! cargo run --release --example admission_control
//! ```
//!
//! A DaaS provider must decide whether an incoming query can finish within
//! an SLA deadline. A point estimate says "predicted 80 ms < 100 ms, admit"
//! — but two queries with the same mean can carry very different risk. With
//! the predicted *distribution* the controller can admit on
//! `Pr(T ≤ deadline) ≥ θ` instead — and, unlike a binary point check, it
//! gets a middle verdict: queries in the defer band (`θ/2 ≤ Pr < θ`) are
//! handed to the scheduler for a re-decision rather than dropped (see the
//! simulator's retry queue in the `deadline_service` example).

use uaq::prelude::*;
use uaq::service::{AdmissionPolicy, Decision};

/// Admission verdicts for one query against a deadline.
struct Verdict {
    name: String,
    mean_ms: f64,
    std_ms: f64,
    prob_in_time: f64,
    point: Decision,
    dist: Decision,
}

fn main() {
    let deadline_ms = 45.0;
    let confidence = 0.9;

    let catalog = DbPreset::Uniform1G.build(42);
    let mut rng = Rng::new(99);
    let units = calibrate(
        &HardwareProfile::pc2(),
        &CalibrationConfig::default(),
        &mut rng,
    );

    // A tight sample budget: estimates are cheap but uncertain — the
    // situation where uncertainty-awareness pays.
    let samples = catalog.draw_samples(0.01, 2, &mut rng);
    let predictor = Predictor::new(units, PredictorConfig::default());

    let point_policy = AdmissionPolicy::mean_only();
    let dist_policy = AdmissionPolicy::uncertainty_aware(confidence);

    // A mixed workload: MICRO scans/joins of very different sizes.
    let queries = Benchmark::Micro.queries(&catalog, 1, &mut rng);

    let mut verdicts: Vec<Verdict> = Vec::new();
    for spec in &queries {
        let plan = plan_query(spec, &catalog);
        let prediction = predictor.predict(&plan, &catalog, &samples);
        let (point, _) = point_policy.decide(&prediction, Some(deadline_ms));
        let (dist, prob_in_time) = dist_policy.decide(&prediction, Some(deadline_ms));
        verdicts.push(Verdict {
            name: spec.name.clone(),
            mean_ms: prediction.mean_ms(),
            std_ms: prediction.std_dev_ms(),
            prob_in_time,
            point,
            dist,
        });
    }

    println!("SLA deadline: {deadline_ms} ms, required confidence: {confidence}");
    println!(
        "\n{:<26} {:>9} {:>8} {:>12}  {:<14} {:<16}",
        "query", "mean", "sigma", "Pr(in time)", "point-based", "distribution"
    );
    let mut disagreements = 0;
    for v in &verdicts {
        let disagree = v.point != v.dist;
        disagreements += disagree as usize;
        println!(
            "{:<26} {:>9.2} {:>8.2} {:>12.3}  {:<14} {:<16}{}",
            v.name,
            v.mean_ms,
            v.std_ms,
            v.prob_in_time,
            v.point.label(),
            v.dist.label(),
            if disagree { "   <-- differs" } else { "" }
        );
    }

    let count = |vs: &[Verdict], f: fn(&Verdict) -> Decision, d: Decision| {
        vs.iter().filter(|v| f(v) == d).count()
    };
    println!(
        "\npoint-based admits {}/{q} queries; distribution-based admits {}, \
         defers {}, rejects {} at {:.0}% confidence ({disagreements} verdicts differ)",
        count(&verdicts, |v| v.point, Decision::Admit),
        count(&verdicts, |v| v.dist, Decision::Admit),
        count(&verdicts, |v| v.dist, Decision::Defer),
        count(&verdicts, |v| v.dist, Decision::Reject),
        confidence * 100.0,
        q = verdicts.len(),
    );
    println!(
        "the defer band holds exactly the borderline queries a point \
         estimate silently gambles on — a scheduler can retry them when a \
         server frees up instead of dropping them"
    );
}
