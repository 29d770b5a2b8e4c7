//! Golden per-level counts, produced once by the classic backend and kept
//! with the benchmark (`golden.tsv`), and the reply checks against them.
//!
//! One line per catalog cell: `key<TAB>accesses<TAB>level;level;…` with
//! each level as `accesses,hits,misses`, L1 first.

use cache_model::LevelStats;
use engine::SimReport;
use std::collections::HashMap;

/// The committed golden counts, compiled into the binary.
const GOLDEN: &str = include_str!("../golden.tsv");

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counts {
    pub accesses: u64,
    pub levels: Vec<LevelStats>,
}

impl Counts {
    pub fn of(report: &SimReport) -> Self {
        Counts {
            accesses: report.result.accesses,
            levels: report.result.levels.clone(),
        }
    }

    pub fn line(&self, key: &str) -> String {
        let levels: Vec<String> = self
            .levels
            .iter()
            .map(|l| format!("{},{},{}", l.accesses, l.hits, l.misses))
            .collect();
        format!("{key}\t{}\t{}", self.accesses, levels.join(";"))
    }
}

pub struct Golden(HashMap<String, Counts>);

impl Golden {
    pub fn load() -> Result<Self, String> {
        Golden::parse(GOLDEN)
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let bad = || format!("golden.tsv line {}: `{line}`", n + 1);
            let mut fields = line.split('\t');
            let (Some(key), Some(accesses), Some(levels), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(bad());
            };
            let levels = levels
                .split(';')
                .map(|level| {
                    let v: Vec<u64> = level.split(',').filter_map(|x| x.parse().ok()).collect();
                    match v[..] {
                        [accesses, hits, misses] => Some(LevelStats {
                            accesses,
                            hits,
                            misses,
                        }),
                        _ => None,
                    }
                })
                .collect::<Option<Vec<_>>>()
                .ok_or_else(bad)?;
            let accesses = accesses.parse().map_err(|_| bad())?;
            map.insert(key.to_string(), Counts { accesses, levels });
        }
        Ok(Golden(map))
    }

    /// Checks an exact reply: identical access and per-level counts.
    pub fn check_exact(&self, key: &str, report: &SimReport) -> Result<(), String> {
        let golden = self.get(key)?;
        let got = Counts::of(report);
        if &got == golden {
            Ok(())
        } else {
            Err(format!("{key}: got {got:?}, golden {golden:?}"))
        }
    }

    /// Checks a sampled reply: every level's misses within the reply's own
    /// error bound of golden.  Returns the worst relative error in ppm.
    pub fn check_sampled(&self, key: &str, report: &SimReport) -> Result<f64, String> {
        let golden = self.get(key)?;
        let approx = report
            .approx
            .as_ref()
            .ok_or_else(|| format!("{key}: sampled reply without approximation stats"))?;
        let levels = &report.result.levels;
        if levels.len() != golden.levels.len() || approx.per_level_error_bound.len() != levels.len()
        {
            return Err(format!("{key}: sampled reply has the wrong depth"));
        }
        let mut worst = 0.0f64;
        for (i, ((got, exact), bound)) in levels
            .iter()
            .zip(&golden.levels)
            .zip(&approx.per_level_error_bound)
            .enumerate()
        {
            let error = got.misses.abs_diff(exact.misses);
            if error > *bound {
                return Err(format!(
                    "{key}: L{} misses {} vs golden {} exceed the bound {bound}",
                    i + 1,
                    got.misses,
                    exact.misses
                ));
            }
            worst = worst.max(error as f64 / exact.misses.max(1) as f64 * 1e6);
        }
        Ok(worst)
    }

    /// The worst per-level error bound of a sampled reply, in ppm of the
    /// golden miss count (0 when the key or the bounds are missing).
    pub fn bound_ppm(&self, key: &str, report: &SimReport) -> f64 {
        let (Ok(golden), Some(approx)) = (self.get(key), &report.approx) else {
            return 0.0;
        };
        approx
            .per_level_error_bound
            .iter()
            .zip(&golden.levels)
            .map(|(&bound, exact)| bound as f64 / exact.misses.max(1) as f64 * 1e6)
            .fold(0.0, f64::max)
    }

    fn get(&self, key: &str) -> Result<&Counts, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("{key}: no golden counts (regenerate golden.tsv)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let counts = Counts {
            accesses: 10,
            levels: vec![
                LevelStats {
                    accesses: 10,
                    hits: 7,
                    misses: 3,
                },
                LevelStats {
                    accesses: 3,
                    hits: 1,
                    misses: 2,
                },
            ],
        };
        let golden = Golden::parse(&counts.line("k|l1l2|lru")).unwrap();
        assert_eq!(golden.get("k|l1l2|lru").unwrap(), &counts);
        assert!(Golden::parse("k\t1\t1,2").is_err());
        assert!(golden.get("missing").is_err());
    }

    #[test]
    fn committed_golden_covers_every_catalog_cell() {
        let golden = Golden::load().unwrap();
        for cell in crate::gen::classic_cells()
            .iter()
            .chain(&crate::gen::warping_cells())
            .chain(&crate::gen::serve_cells())
        {
            assert!(golden.get(&cell.golden_key()).is_ok(), "{cell:?}");
        }
    }
}
