//! `benchmark compare A.json B.json`: per workload and metric, the median
//! and quartiles of each side over its passes, and a verdict against the
//! metric's bound. Where the spread between a side's own passes is wider
//! than the bound, the change is "unresolved" unless every B pass beats
//! every A pass.

use crate::spec::Spec;
use crate::stats::Stat;
use perigap_core::trace::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Per workload, per metric, the value of each pass.
type Passes = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Passes, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Passes::new();
    for pass in doc.get("passes").and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(Json::Obj(workloads)) = pass.get("workloads") else {
            continue;
        };
        for (workload, result) in workloads {
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    if out.is_empty() {
        return Err(format!("{} holds no passes", path.display()));
    }
    Ok(out)
}

/// The verdict on one metric; `None` when it has no bound.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
) -> Option<&'static str> {
    let bound = bound?;
    let (sa, sb) = (Stat::of(a)?, Stat::of(b)?);
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    if sa.spread().max(sb.spread()) > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return Some(if all_better { "better" } else { "unresolved" });
    }
    let change = (sb.value - sa.value) / sa.value;
    let worse = if lower_is_better { change } else { -change };
    Some(if worse > bound {
        "REGRESSION"
    } else if worse < -bound {
        "better"
    } else {
        "ok"
    })
}

pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<i32, String> {
    let (pa, pb) = (load(a)?, load(b)?);
    let mut regressions = 0;
    println!(
        "{:<16} {:<34} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change"
    );
    for workload in &spec.workloads {
        let (Some(ma), Some(mb)) = (pa.get(workload), pb.get(workload)) else {
            continue;
        };
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (Some(va), Some(vb)) = (ma.get(&m.name), mb.get(&m.name)) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (Stat::of(va), Stat::of(vb)) else {
                continue;
            };
            let show = |s: Stat| format!("{:.6} [{:.6}, {:.6}] {}", s.value, s.q1, s.q3, s.samples);
            let change = if sa.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", (sb.value - sa.value) / sa.value * 100.0)
            };
            let verdict = verdict(va, vb, m.lower_is_better, m.bound).unwrap_or("");
            regressions += usize::from(verdict == "REGRESSION");
            println!(
                "{workload:<16} {:<34} {:>34} {:>34} {change:>8}  {verdict}",
                format!("{} ({})", m.name, m.unit),
                show(sa),
                show(sb),
            );
        }
    }
    Ok(if regressions > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(&base, &[100.5, 100.0, 101.0, 99.5], true, Some(0.1)),
            Some("ok")
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.0], true, Some(0.1)),
            Some("REGRESSION")
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.0], false, Some(0.1)),
            Some("better")
        );
        // B's own passes spread wider than the bound: unresolved, unless
        // every B pass beats every A pass.
        assert_eq!(
            verdict(&base, &[80.0, 130.0, 95.0, 110.0], true, Some(0.1)),
            Some("unresolved")
        );
        assert_eq!(
            verdict(&base, &[50.0, 80.0, 60.0, 70.0], true, Some(0.1)),
            Some("better")
        );
        assert_eq!(verdict(&base, &base, true, None), None);
    }
}
