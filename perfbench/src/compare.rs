//! `--compare A.jsonl B.jsonl`: for every workload and end-to-end metric,
//! each side's median, quartiles and IQR, and a verdict on B against A.
//!
//! Rules: pair the runs in file order (record runs alternating A and B);
//! B is `better` only with at least 10 pairs, B winning at least 9 in 10
//! of them (ties count for neither) and a median gain larger than A's
//! IQR. B is `worse` when its median is worse than A's by more than the
//! metric's bound. When A's own spread is wider than the bound the
//! comparison is `unresolved` unless every B run beats every A run.
//! Everything else is `within-bound`.

use crate::json::{self, Value};
use crate::metrics::{Better, Decl, END_TO_END};
use crate::stats::{median, quartiles};

/// Records of one results file, grouped by workload in first-seen order.
fn load(path: &str) -> Result<Vec<(String, Vec<Value>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut groups: Vec<(String, Vec<Value>)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let wl = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: record without a workload", i + 1))?
            .to_string();
        match groups.iter_mut().find(|(w, _)| *w == wl) {
            Some((_, recs)) => recs.push(rec),
            None => groups.push((wl, vec![rec])),
        }
    }
    Ok(groups)
}

fn values(recs: &[Value], metric: &str) -> Vec<f64> {
    recs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

/// The verdict on `b` against `a` for one metric.
pub fn verdict(d: &Decl, a: &[f64], b: &[f64]) -> &'static str {
    let sign = match d.better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let (am, bm) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let iqr = q3 - q1;
    let n = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| (*y - *x) * sign > 0.0)
        .count();
    let gain = (bm - am) * sign;
    if n >= 10 && wins * 10 >= 9 * n && gain > iqr {
        return "better";
    }
    if iqr > d.bound * am.abs() {
        let worst_b = b.iter().map(|y| y * sign).fold(f64::INFINITY, f64::min);
        let best_a = a.iter().map(|x| x * sign).fold(f64::NEG_INFINITY, f64::max);
        return if worst_b > best_a {
            "within-bound"
        } else {
            "unresolved"
        };
    }
    if -gain > d.bound * am.abs() {
        "worse"
    } else {
        "within-bound"
    }
}

/// Print the comparison; `Ok(true)` when no metric came out `worse`.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("perfbench --compare  A = {a_path}  B = {b_path}");
    println!(
        "{:<17} {:<14} {:>3} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "n",
        "A median",
        "A [q1, q3] (IQR%)",
        "B median",
        "B [q1, q3] (IQR%)",
        "B-A %",
        "wins"
    );
    let mut ok = true;
    for (wl, a_recs) in &a {
        let Some((_, b_recs)) = b.iter().find(|(w, _)| w == wl) else {
            println!("{wl:<17} (absent from B)");
            continue;
        };
        for d in END_TO_END {
            let (av, bv) = (values(a_recs, d.name), values(b_recs, d.name));
            if av.is_empty() || bv.is_empty() {
                continue;
            }
            let v = verdict(d, &av, &bv);
            ok &= v != "worse";
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                let m = median(v);
                (
                    m,
                    format!("[{q1:.4e}, {q3:.4e}] ({:.1})", (q3 - q1) / m * 100.0),
                )
            };
            let ((am, aq), (bm, bq)) = (side(&av), side(&bv));
            let sign = if d.better == Better::Lower { -1.0 } else { 1.0 };
            let wins = av
                .iter()
                .zip(&bv)
                .filter(|(x, y)| (**y - **x) * sign > 0.0)
                .count();
            let n = av.len().min(bv.len());
            println!(
                "{wl:<17} {:<14} {n:>3} {am:>12.5e} {aq:>25} {bm:>12.5e} {bq:>25} {:>+8.2} {:>6}  {v}",
                d.name,
                (bm - am) / am * 100.0,
                format!("{wins}/{n}"),
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN_S: Decl = Decl {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.1,
    };

    #[test]
    fn verdicts_follow_the_pairing_rules() {
        let a: Vec<f64> = (0..10).map(|i| 1.0 + f64::from(i) * 0.001).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(verdict(&RUN_S, &a, &faster), "better");
        assert_eq!(verdict(&RUN_S, &a, &slower), "worse");
        assert_eq!(verdict(&RUN_S, &a, &same), "within-bound");
        // Fewer than ten pairs can never claim a win.
        assert_eq!(verdict(&RUN_S, &a[..5], &faster[..5]), "within-bound");
        // A parent spread wider than the bound leaves it unresolved...
        let noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.4, 0.9, 1.2, 0.6, 1.1];
        let noisy_b: Vec<f64> = noisy.iter().map(|x| x * 1.02).collect();
        assert_eq!(verdict(&RUN_S, &noisy, &noisy_b), "unresolved");
        // ...unless every B run beats every A run.
        assert_eq!(verdict(&RUN_S, &noisy, &[0.3; 10]), "better");
        assert_eq!(verdict(&RUN_S, &noisy[..4], &[0.3; 4]), "within-bound");
    }
}
