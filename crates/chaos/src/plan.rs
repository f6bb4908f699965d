//! The seeded fault plan: *which* fault fires *where* is a pure function.
//!
//! A [`FaultPlan`] names injection sites across the execution stack
//! ([`FaultSite`]) and, per site, the kind of fault to inject
//! ([`FaultKind`]) at a given permille rate. Whether attempt `a` of
//! operation `index` at site `s` in scope `scope` faults is a pure hash of
//! `(seed, s, scope, index, a)` — the same plan always produces the same
//! fault pattern, which is what makes the chaos property suite and the
//! checked-in regression corpus possible.
//!
//! Convergence convention: **the final attempt of any budget never
//! faults**, so a bounded retry loop always terminates with a success as
//! long as the caller grants the plan's `max_attempts`.
//! Plans constructed with a larger `max_attempts` than the executing
//! retry budget *can* exhaust it — that is the
//! `TaskRetryExhausted` path, and it is reachable on purpose.

use crate::retry::BackoffPolicy;
use mrsky_trace::json::{self, JsonValue};

/// A named fault-injection site in the execution stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A simulated-DFS block read feeding a map task.
    DfsRead,
    /// A map task attempt (fails mid-map, discarding partial output).
    MapTask,
    /// A reduce-side shuffle fetch of one map-output segment.
    ShuffleFetch,
    /// One skyline-service mutation (insert/delete) on the request path.
    ServeMutation,
    /// One skyline-service snapshot query on the request path.
    ServeQuery,
}

impl FaultSite {
    /// All sites, for profile construction and property generators.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::DfsRead,
        FaultSite::MapTask,
        FaultSite::ShuffleFetch,
        FaultSite::ServeMutation,
        FaultSite::ServeQuery,
    ];

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::DfsRead => "dfs-read",
            FaultSite::MapTask => "map-task",
            FaultSite::ShuffleFetch => "shuffle-fetch",
            FaultSite::ServeMutation => "serve-mutation",
            FaultSite::ServeQuery => "serve-query",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.as_str() == s)
    }

    fn tag(self) -> u64 {
        match self {
            FaultSite::DfsRead => 0x6466_7372,
            FaultSite::MapTask => 0x6d61_7074,
            FaultSite::ShuffleFetch => 0x7368_6666,
            FaultSite::ServeMutation => 0x7376_6d75,
            FaultSite::ServeQuery => 0x7376_7175,
        }
    }
}

/// Wire names of sites no code consults any more. A saved plan may still
/// name one: [`FaultPlan::from_json`] drops its rules, which changes no
/// decision, since `decide` only reads the rules of the site it is asked
/// about.
const RETIRED_SITES: &[&str] = &["ingest-row"];

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The operation panics (worker thread unwind).
    Panic,
    /// The operation returns a transient error.
    TransientError,
    /// A record/segment is silently dropped and must be re-fetched.
    DropRecord,
    /// A record/segment arrives corrupted and must be re-fetched.
    CorruptRecord,
    /// A serve mutation's row is poisoned (non-finite value) and must be
    /// diverted to the dead-letter queue.
    PoisonRow,
}

impl FaultKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::TransientError => "transient-error",
            FaultKind::DropRecord => "drop-record",
            FaultKind::CorruptRecord => "corrupt-record",
            FaultKind::PoisonRow => "poison-row",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<FaultKind> {
        [
            FaultKind::Panic,
            FaultKind::TransientError,
            FaultKind::DropRecord,
            FaultKind::CorruptRecord,
            FaultKind::PoisonRow,
        ]
        .into_iter()
        .find(|k| k.as_str() == s)
    }

    fn tag(self) -> u64 {
        match self {
            FaultKind::Panic => 0x70,
            FaultKind::TransientError => 0x74,
            FaultKind::DropRecord => 0x64,
            FaultKind::CorruptRecord => 0x63,
            FaultKind::PoisonRow => 0x72,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One injection rule: at `site`, inject `kind` on roughly
/// `permille`/1000 of attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteRule {
    /// Where to inject.
    pub site: FaultSite,
    /// What to inject.
    pub kind: FaultKind,
    /// Injection rate in permille (0–999).
    pub permille: u32,
}

/// A deterministic, seeded, serializable fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed folded into every injection decision.
    pub seed: u64,
    /// Retry budget the plan converges within: the decision function never
    /// injects when `attempt + 1 >= max_attempts`.
    pub max_attempts: u32,
    /// Deterministic backoff between attempts (charged to the sim clock).
    pub backoff: BackoffPolicy,
    /// Active injection rules; the first matching rule that draws a fault
    /// wins.
    pub rules: Vec<SiteRule>,
    /// If set, the driver kills the run after this many partition
    /// checkpoints have been written (the `--resume` scenario).
    pub kill_after_checkpoints: Option<u64>,
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn off() -> Self {
        Self {
            seed: 0,
            max_attempts: 4,
            backoff: BackoffPolicy::default(),
            rules: Vec::new(),
            kill_after_checkpoints: None,
        }
    }

    /// A light chaos profile: ~10% of attempts fault at every site, mixed
    /// kinds, well within the default 4-attempt budget.
    pub fn light(seed: u64) -> Self {
        Self {
            seed,
            rules: vec![
                SiteRule {
                    site: FaultSite::DfsRead,
                    kind: FaultKind::TransientError,
                    permille: 100,
                },
                SiteRule {
                    site: FaultSite::MapTask,
                    kind: FaultKind::Panic,
                    permille: 60,
                },
                SiteRule {
                    site: FaultSite::ShuffleFetch,
                    kind: FaultKind::DropRecord,
                    permille: 60,
                },
                SiteRule {
                    site: FaultSite::ShuffleFetch,
                    kind: FaultKind::CorruptRecord,
                    permille: 60,
                },
            ],
            ..Self::off()
        }
    }

    /// A heavy chaos profile: roughly a third of attempts fault, every
    /// site active, serve mutations also poisoned.
    pub fn heavy(seed: u64) -> Self {
        let mut rules = Vec::new();
        for site in FaultSite::ALL {
            let kinds: &[FaultKind] = match site {
                FaultSite::DfsRead => &[FaultKind::TransientError],
                FaultSite::MapTask => &[FaultKind::Panic, FaultKind::TransientError],
                FaultSite::ShuffleFetch => &[FaultKind::DropRecord, FaultKind::CorruptRecord],
                FaultSite::ServeMutation => &[FaultKind::TransientError, FaultKind::PoisonRow],
                FaultSite::ServeQuery => &[FaultKind::TransientError],
            };
            for &kind in kinds {
                rules.push(SiteRule {
                    site,
                    kind,
                    permille: 350 / kinds.len() as u32,
                });
            }
        }
        Self {
            seed,
            max_attempts: 6,
            rules,
            ..Self::off()
        }
    }

    /// Looks up a named profile (`off`, `light`, `heavy`).
    pub fn profile(name: &str, seed: u64) -> Option<Self> {
        match name {
            "off" => Some(Self::off()),
            "light" => Some(Self::light(seed)),
            "heavy" => Some(Self::heavy(seed)),
            _ => None,
        }
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.rules.iter().any(|r| r.permille > 0) || self.kill_after_checkpoints.is_some()
    }

    /// Deterministically decides whether attempt `attempt` of operation
    /// `index` at `site` (within `scope`, e.g. a job or file name) faults,
    /// and with which kind.
    ///
    /// The final attempt of the plan's budget never faults, so retry loops
    /// granted `max_attempts` tries always converge.
    pub fn decide(
        &self,
        site: FaultSite,
        scope: &str,
        index: u64,
        attempt: u32,
    ) -> Option<FaultKind> {
        if attempt + 1 >= self.max_attempts {
            return None;
        }
        for rule in &self.rules {
            if rule.site != site || rule.permille == 0 {
                continue;
            }
            let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15 ^ site.tag();
            for b in scope.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
            }
            for x in [rule.kind.tag(), index, u64::from(attempt)] {
                h = (h ^ x).wrapping_mul(0x1000_0000_01b3);
                h ^= h >> 29;
            }
            if (h % 1000) < u64::from(rule.permille) {
                return Some(rule.kind);
            }
        }
        None
    }

    /// Serializes the plan as a single JSON object (reproducible chaos
    /// runs: `mrsky chaos plan` writes this, `mrsky chaos replay` reads
    /// it).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"seed\":{},\"max_attempts\":{},\"backoff_base\":{},\"backoff_factor\":{},\
             \"backoff_jitter\":{},",
            self.seed,
            self.max_attempts,
            json::number(self.backoff.base_seconds),
            json::number(self.backoff.factor),
            json::number(self.backoff.jitter),
        );
        match self.kill_after_checkpoints {
            Some(n) => {
                let _ = write!(out, "\"kill_after_checkpoints\":{n},");
            }
            None => out.push_str("\"kill_after_checkpoints\":null,"),
        }
        out.push_str("\"rules\":[");
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"site\":\"{}\",\"kind\":\"{}\",\"permille\":{}}}",
                rule.site, rule.kind, rule.permille
            );
        }
        out.push_str("]}");
        out
    }

    /// Parses a plan produced by [`FaultPlan::to_json`]. Rules naming a
    /// retired site are dropped.
    ///
    /// # Errors
    ///
    /// Describes the first schema violation found.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        let req_u64 = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or non-integer field `{key}`"))
        };
        let req_f64 = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
        };
        let seed = req_u64("seed")?;
        let max_attempts = u32::try_from(req_u64("max_attempts")?)
            .map_err(|_| "max_attempts out of range".to_string())?;
        // `backoff_jitter` is optional so plans written before the field
        // existed still parse (they ran unjittered, which 0.0 preserves).
        let jitter = match value.get("backoff_jitter") {
            None | Some(JsonValue::Null) => 0.0,
            Some(v) => v.as_f64().ok_or("backoff_jitter must be a number")?,
        };
        if !(0.0..1.0).contains(&jitter) {
            return Err(format!("backoff_jitter {jitter} outside [0, 1)"));
        }
        let backoff = BackoffPolicy {
            base_seconds: req_f64("backoff_base")?,
            factor: req_f64("backoff_factor")?,
            jitter,
        };
        let kill_after_checkpoints = match value.get("kill_after_checkpoints") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or("kill_after_checkpoints must be an integer or null")?,
            ),
        };
        let rules_value = value.get("rules").ok_or("missing field `rules`")?;
        let JsonValue::Arr(items) = rules_value else {
            return Err("`rules` must be an array".into());
        };
        let mut rules = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let site_name = item
                .get("site")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("rule {i}: missing `site`"))?;
            if RETIRED_SITES.contains(&site_name) {
                continue;
            }
            let site = FaultSite::parse(site_name)
                .ok_or_else(|| format!("rule {i}: unknown site `{site_name}`"))?;
            let kind_name = item
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("rule {i}: missing `kind`"))?;
            let kind = FaultKind::parse(kind_name)
                .ok_or_else(|| format!("rule {i}: unknown kind `{kind_name}`"))?;
            let permille = item
                .get("permille")
                .and_then(JsonValue::as_u64)
                .and_then(|p| u32::try_from(p).ok())
                .ok_or_else(|| format!("rule {i}: missing or bad `permille`"))?;
            if permille >= 1000 {
                return Err(format!("rule {i}: permille {permille} can never converge"));
            }
            rules.push(SiteRule {
                site,
                kind,
                permille,
            });
        }
        Ok(FaultPlan {
            seed,
            max_attempts,
            backoff,
            rules,
            kill_after_checkpoints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_never_injects() {
        let plan = FaultPlan::off();
        for site in FaultSite::ALL {
            for i in 0..200 {
                assert_eq!(plan.decide(site, "scope", i, 0), None);
            }
        }
        assert!(!plan.is_active());
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::heavy(42);
        for site in FaultSite::ALL {
            for i in 0..50 {
                for a in 0..plan.max_attempts {
                    assert_eq!(
                        plan.decide(site, "job-x", i, a),
                        plan.decide(site, "job-x", i, a)
                    );
                }
            }
        }
    }

    #[test]
    fn final_attempt_never_faults() {
        let plan = FaultPlan {
            rules: vec![SiteRule {
                site: FaultSite::MapTask,
                kind: FaultKind::Panic,
                permille: 999,
            }],
            max_attempts: 3,
            ..FaultPlan::off()
        };
        for i in 0..500 {
            assert_eq!(plan.decide(FaultSite::MapTask, "s", i, 2), None);
        }
        // earlier attempts do fault at this rate
        assert!((0..500).any(|i| plan.decide(FaultSite::MapTask, "s", i, 0).is_some()));
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan {
            rules: vec![SiteRule {
                site: FaultSite::ShuffleFetch,
                kind: FaultKind::DropRecord,
                permille: 300,
            }],
            max_attempts: 4,
            ..FaultPlan::off()
        };
        let hits = (0..10_000)
            .filter(|&i| plan.decide(FaultSite::ShuffleFetch, "j", i, 0).is_some())
            .count();
        assert!((2400..3600).contains(&hits), "got {hits}");
    }

    #[test]
    fn sites_and_scopes_draw_independently() {
        let plan = FaultPlan::heavy(7);
        let a: Vec<bool> = (0..200)
            .map(|i| plan.decide(FaultSite::MapTask, "j1", i, 0).is_some())
            .collect();
        let b: Vec<bool> = (0..200)
            .map(|i| plan.decide(FaultSite::MapTask, "j2", i, 0).is_some())
            .collect();
        let c: Vec<bool> = (0..200)
            .map(|i| plan.decide(FaultSite::DfsRead, "j1", i, 0).is_some())
            .collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn seeds_change_the_pattern() {
        let p1 = FaultPlan::light(1);
        let p2 = FaultPlan::light(2);
        let pat = |p: &FaultPlan| {
            (0..300)
                .map(|i| p.decide(FaultSite::MapTask, "s", i, 0).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(pat(&p1), pat(&p2));
    }

    #[test]
    fn json_round_trips() {
        for plan in [
            FaultPlan::off(),
            FaultPlan::light(99),
            FaultPlan::heavy(123),
            FaultPlan {
                kill_after_checkpoints: Some(3),
                ..FaultPlan::light(5)
            },
        ] {
            let text = plan.to_json();
            let back = FaultPlan::from_json(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, plan, "{text}");
        }
    }

    #[test]
    fn jitter_round_trips_and_legacy_plans_parse() {
        let mut plan = FaultPlan::light(3);
        plan.backoff.jitter = 0.25;
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        // plans serialized before `backoff_jitter` existed default to 0.0
        let legacy = FaultPlan::from_json(
            r#"{"seed":1,"max_attempts":4,"backoff_base":0.1,"backoff_factor":2.0,"rules":[]}"#,
        )
        .unwrap();
        assert_eq!(legacy.backoff.jitter, 0.0);
        assert!(FaultPlan::from_json(
            r#"{"seed":1,"max_attempts":4,"backoff_base":0.1,"backoff_factor":2.0,"backoff_jitter":1.5,"rules":[]}"#,
        )
        .is_err());
    }

    #[test]
    fn serve_sites_draw_independently_of_batch_sites() {
        let plan = FaultPlan::heavy(11);
        let m: Vec<_> = (0..200)
            .map(|i| plan.decide(FaultSite::ServeMutation, "tenant-a", i, 0))
            .collect();
        let q: Vec<_> = (0..200)
            .map(|i| plan.decide(FaultSite::ServeQuery, "tenant-a", i, 0))
            .collect();
        assert!(m.iter().any(Option::is_some));
        assert!(q.iter().any(Option::is_some));
        assert_ne!(m, q);
        // growing ALL must not perturb decisions at the original sites
        let map: Vec<_> = (0..200)
            .map(|i| plan.decide(FaultSite::MapTask, "s", i, 0).is_some())
            .collect();
        assert!(map.iter().any(|&b| b));
    }

    /// `mrsky chaos plan --profile heavy --seed 7` as written while the
    /// `ingest-row` site existed.
    const HEAVY_7_WITH_INGEST_ROW: &str = r#"{"seed":7,"max_attempts":6,"backoff_base":0.05,"backoff_factor":2,"backoff_jitter":0,"kill_after_checkpoints":null,"rules":[{"site":"dfs-read","kind":"transient-error","permille":350},{"site":"map-task","kind":"panic","permille":175},{"site":"map-task","kind":"transient-error","permille":175},{"site":"shuffle-fetch","kind":"drop-record","permille":175},{"site":"shuffle-fetch","kind":"corrupt-record","permille":175},{"site":"ingest-row","kind":"poison-row","permille":350},{"site":"serve-mutation","kind":"transient-error","permille":175},{"site":"serve-mutation","kind":"poison-row","permille":175},{"site":"serve-query","kind":"transient-error","permille":350}]}"#;

    #[test]
    fn plans_naming_a_retired_site_parse_without_its_rules() {
        let old = FaultPlan::from_json(HEAVY_7_WITH_INGEST_ROW).unwrap();
        assert_eq!(old, FaultPlan::heavy(7));
        assert_eq!(old.rules.len(), 8);
        // every remaining site decides as the plan did with the rule: a
        // digest of 9000 decisions, taken while `ingest-row` still parsed
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for site in FaultSite::ALL {
            for i in 0..300 {
                for a in 0..old.max_attempts {
                    let kind = old.decide(site, "MR-Angle-partition", i, a);
                    let byte = kind.map_or(0, |k| u64::from(k.as_str().as_bytes()[0]));
                    digest = (digest ^ byte).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(digest, 0x33a9_7ca7_f2e5_7ab0);
        // and the plan round-trips without the retired rule
        let text = old.to_json();
        assert_eq!(
            text,
            HEAVY_7_WITH_INGEST_ROW.replace(
                r#"{"site":"ingest-row","kind":"poison-row","permille":350},"#,
                ""
            )
        );
        assert_eq!(FaultPlan::from_json(&text).unwrap(), old);
    }

    #[test]
    fn json_rejects_bad_documents() {
        assert!(FaultPlan::from_json("not json").is_err());
        assert!(FaultPlan::from_json("{}").is_err());
        assert!(FaultPlan::from_json(
            r#"{"seed":1,"max_attempts":4,"backoff_base":0.1,"backoff_factor":2.0,"rules":[{"site":"nope","kind":"panic","permille":10}]}"#
        )
        .is_err());
        assert!(FaultPlan::from_json(
            r#"{"seed":1,"max_attempts":4,"backoff_base":0.1,"backoff_factor":2.0,"rules":[{"site":"map-task","kind":"panic","permille":1000}]}"#
        )
        .is_err());
    }

    #[test]
    fn wire_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.as_str()), Some(site));
        }
        for kind in [
            FaultKind::Panic,
            FaultKind::TransientError,
            FaultKind::DropRecord,
            FaultKind::CorruptRecord,
            FaultKind::PoisonRow,
        ] {
            assert_eq!(FaultKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(FaultSite::parse("bogus"), None);
        assert_eq!(FaultKind::parse("bogus"), None);
    }

    #[test]
    fn profiles_resolve_by_name() {
        assert_eq!(FaultPlan::profile("off", 1), Some(FaultPlan::off()));
        assert_eq!(FaultPlan::profile("light", 9), Some(FaultPlan::light(9)));
        assert_eq!(FaultPlan::profile("heavy", 9), Some(FaultPlan::heavy(9)));
        assert_eq!(FaultPlan::profile("nope", 9), None);
    }
}
