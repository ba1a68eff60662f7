//! The retry ladder: an ordered list of `(options, validation)` rungs and the
//! one walker every retrying caller — the engine, the pipeline and the
//! translation service — uses. A failed attempt (panic, limit, deadline or
//! rejected output) restores the input from a pristine snapshot and moves to
//! the next rung; what one attempt does is the caller's closure.

use ossa_ir::Function;

use crate::coalesce::{OutOfSsaOptions, OutOfSsaStats, RecoveryOutcome};
use crate::fault::TranslateError;
use crate::validate::ValidationMode;

/// One rung of a [`Ladder`]: what an attempt translates with, and how its
/// output is checked.
#[derive(Clone, Debug)]
pub struct Rung {
    /// Translation options of the attempt.
    pub options: OutOfSsaOptions,
    /// Output validation of the attempt.
    pub validation: ValidationMode,
}

/// An ordered list of [`Rung`]s: the first for healthy functions, the rest
/// fallbacks tried in order.
#[derive(Clone, Debug)]
pub struct Ladder {
    first: Rung,
    fallbacks: Vec<Rung>,
}

impl Ladder {
    /// The engine's and the pipeline's ladder: `options` at `validation`,
    /// then `retries` attempts on [`OutOfSsaOptions::conservative_fallback`]
    /// at the same validation.
    pub fn retrying(options: OutOfSsaOptions, validation: ValidationMode, retries: u32) -> Self {
        let fallback = Rung { options: OutOfSsaOptions::conservative_fallback(), validation };
        let fallbacks = vec![fallback; retries as usize];
        Self { first: Rung { options, validation }, fallbacks }
    }

    /// The translation service's ladder: the default options at
    /// `validation`, then [`OutOfSsaOptions::conservative_fallback`] with
    /// validation one tier down (Differential → Structural → Off), then
    /// [`OutOfSsaOptions::minimal_coalescing`] unvalidated.
    pub fn degrading(validation: ValidationMode) -> Self {
        let lowered = match validation {
            ValidationMode::Differential => ValidationMode::Structural,
            ValidationMode::Structural | ValidationMode::Off => ValidationMode::Off,
        };
        let fallbacks = vec![
            Rung { options: OutOfSsaOptions::conservative_fallback(), validation: lowered },
            Rung {
                options: OutOfSsaOptions::minimal_coalescing(),
                validation: ValidationMode::Off,
            },
        ];
        Self { first: Rung { options: OutOfSsaOptions::default(), validation }, fallbacks }
    }

    /// The options of the first rung.
    pub fn options(&self) -> &OutOfSsaOptions {
        &self.first.options
    }

    /// Whether a walk needs a pristine snapshot of its input: to restore it
    /// for a retry, or to validate against it.
    pub fn needs_snapshot(&self) -> bool {
        !self.fallbacks.is_empty() || self.first.validation != ValidationMode::Off
    }

    fn rung(&self, index: usize) -> &Rung {
        index.checked_sub(1).map_or(&self.first, |i| &self.fallbacks[i])
    }

    /// Calls `attempt(func, rung, tries)` on successive rungs from `start`
    /// until one succeeds or the last rung fails, restoring `func`
    /// from `pristine` before every retry. `attempt` must quarantine its
    /// worker state on `Err`. A successful output's stats record the walk's
    /// validation failures and, after a retry, [`RecoveryOutcome::Recovered`].
    /// The failpoint injector sees the rung index as the attempt number, so
    /// injected faults fire on rung 0 only.
    ///
    /// # Panics
    /// If `start` is past the last rung, or a retry has no `pristine`.
    pub fn walk<R: AsMut<OutOfSsaStats>>(
        &self,
        start: usize,
        func: &mut Function,
        pristine: Option<&Function>,
        mut attempt: impl FnMut(&mut Function, &Rung, usize) -> Result<R, TranslateError>,
    ) -> Walk<R> {
        let end = 1 + self.fallbacks.len();
        assert!(start < end, "a walk starts on a rung of the ladder");
        let mut validation_failures = 0;
        let mut rung = start;
        let result = loop {
            #[cfg(feature = "failpoints")]
            crate::fault::failpoints::set_attempt(rung as u32);
            let tries = rung - start;
            if tries > 0 {
                func.clone_from(pristine.expect("a retry restores from a pristine snapshot"));
            }
            match attempt(func, self.rung(rung), tries) {
                Ok(mut output) => {
                    let stats = output.as_mut();
                    stats.validation_failures = validation_failures;
                    if tries > 0 {
                        stats.recovery = RecoveryOutcome::Recovered { attempt: tries as u32 + 1 };
                    }
                    break Ok(output);
                }
                Err(error) => {
                    validation_failures +=
                        matches!(error, TranslateError::ValidationFailed { .. }) as usize;
                    if rung + 1 == end {
                        break Err(error);
                    }
                    rung += 1;
                }
            }
        };
        #[cfg(feature = "failpoints")]
        crate::fault::failpoints::set_attempt(0);
        Walk { result, rung, validation_failures }
    }
}

/// A single unvalidated rung: what the unchecked entry points translate with.
impl From<OutOfSsaOptions> for Ladder {
    fn from(options: OutOfSsaOptions) -> Self {
        Self::retrying(options, ValidationMode::Off, 0)
    }
}

/// The outcome of one [`Ladder::walk`].
#[derive(Debug)]
pub struct Walk<R> {
    /// The first successful attempt's output, or the last attempt's error.
    pub result: Result<R, TranslateError>,
    /// The rung `result` came from.
    pub rung: usize,
    /// Attempts whose output validation rejected.
    pub validation_failures: usize,
}

impl AsMut<OutOfSsaStats> for OutOfSsaStats {
    fn as_mut(&mut self) -> &mut OutOfSsaStats {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::Strategy;
    use crate::fault::TranslatePhase;
    use ossa_cfggen::{generate_ssa_function, GenConfig};

    #[test]
    fn retrying_walk_restores_the_input_and_records_the_recovery() {
        let structural = ValidationMode::Structural;
        assert!(!Ladder::from(OutOfSsaOptions::default()).needs_snapshot());
        let ladder = Ladder::retrying(OutOfSsaOptions::default(), structural, 2);
        let pristine = generate_ssa_function("walk", &GenConfig::small(), 1).0;
        let rejected = TranslateError::ValidationFailed {
            phase: TranslatePhase::Validate,
            detail: "rejected".to_string(),
        };
        let mut seen = Vec::new();
        let walk = ladder.walk(0, &mut pristine.clone(), Some(&pristine), |func, rung, tries| {
            assert_eq!(*func, pristine, "attempt {tries} starts from the pristine input");
            seen.push((rung.options.strategy, rung.validation));
            func.name.push('!');
            (tries == 2).then(OutOfSsaStats::default).ok_or(rejected.clone())
        });
        let stats = walk.result.expect("the third attempt succeeds");
        assert_eq!(stats.recovery, RecoveryOutcome::Recovered { attempt: 3 });
        assert_eq!((walk.rung, walk.validation_failures, stats.validation_failures), (2, 2, 2));
        let conservative = (Strategy::Intersect, structural);
        assert_eq!(seen, [(Strategy::Value, structural), conservative, conservative]);
    }

    #[test]
    fn degrading_walk_climbs_from_its_start_to_the_last_rung() {
        use ValidationMode::{Differential, Off, Structural};
        let ladder = Ladder::degrading(Differential);
        let pristine = generate_ssa_function("walk", &GenConfig::small(), 2).0;
        let deadline = TranslateError::DeadlineExceeded { phase: TranslatePhase::Coalesce };
        let climb = |start: usize| {
            let mut validations = Vec::new();
            let walk = ladder.walk(start, &mut pristine.clone(), Some(&pristine), |_, rung, _| {
                validations.push(rung.validation);
                Err::<OutOfSsaStats, _>(deadline.clone())
            });
            assert_eq!((walk.result.unwrap_err(), walk.validation_failures), (deadline.clone(), 0));
            assert_eq!(walk.rung, 2, "a failing walk ends on the last rung");
            validations
        };
        // One tier down per rung, from wherever the walk starts.
        assert_eq!(climb(0), [Differential, Structural, Off]);
        assert_eq!(climb(1), [Structural, Off]);
        assert_eq!(climb(2), [Off]);
    }
}
