//! The declarative scenario specification and its descriptor generator.
//!
//! A [`Scenario`] is a named, seeded sequence of [`StageSpec`] generator
//! stages. Stages generate independently (each from a sub-seed derived
//! from the scenario seed and the stage index) and concatenate into one
//! re-sequenced descriptor stream, so a scenario is a pure function of
//! its spec: same spec + seed → identical stream, which the determinism
//! proptests pin.

use flowlut_core::table::TableConfig;
use flowlut_traffic::fabric::FabricTraceProfile;
use flowlut_traffic::generators::{BurstWorkload, ChurnWorkload, ElephantMiceWorkload};
use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor, MAX_KEY_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adversarial::CollisionMiner;

/// One generator stage of a scenario.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StageSpec {
    /// Uniform flow popularity over `flows` flows.
    Uniform {
        /// Distinct flows drawn from.
        flows: u64,
        /// Packets generated by this stage.
        packets: usize,
    },
    /// Zipf-skewed flow popularity (the Figure 6 fabric-trace law).
    Zipf {
        /// Distinct flows in the population.
        flows: u64,
        /// Zipf exponent (larger → more skew).
        exponent: f64,
        /// Packets generated by this stage.
        packets: usize,
    },
    /// Elephant/mice mix: few heavy flows over a long tail.
    ElephantMice {
        /// Heavy flows.
        elephants: u64,
        /// Light flows.
        mice: u64,
        /// Fraction of packets from elephants, in `[0, 1]`.
        elephant_share: f64,
        /// Packets generated by this stage.
        packets: usize,
    },
    /// Flow churn: fixed live population with per-packet birth/death.
    Churn {
        /// Live population size.
        live_flows: usize,
        /// Per-packet probability of one death + one birth.
        churn_rate: f64,
        /// Packets generated by this stage.
        packets: usize,
    },
    /// Burst trains / microbursts: consecutive same-flow packet runs.
    Burst {
        /// Distinct flows bursts draw from.
        flows: u64,
        /// Longest burst, in packets.
        max_burst: usize,
        /// Packets generated by this stage.
        packets: usize,
    },
    /// Adversarial collision flood: keys mined to collide under the
    /// victim Hash-CAM's bucket functions (see
    /// [`CollisionMiner`]). Each mined key is sent `repeats` times.
    Adversarial {
        /// Distinct mined keys.
        keys: usize,
        /// Attacked region size (both buckets of every key land here).
        target_buckets: u32,
        /// Victim table's `buckets_per_mem`.
        table_buckets: u32,
        /// Victim table's hash seed.
        hash_seed: u64,
        /// Victim table's `entry_slot_bytes`.
        slot_bytes: usize,
        /// Rounds of the key set (SYN retransmits); ≥ 1.
        repeats: usize,
    },
}

/// The mined adversarial keys are 13-byte 5-tuples; a slot holds a
/// length byte plus the key, and no key is wider than `MAX_KEY_BYTES`.
const SLOT_BYTES: std::ops::RangeInclusive<usize> = 14..=MAX_KEY_BYTES + 1;

impl StageSpec {
    /// Packets this stage contributes to the stream.
    pub fn packets(&self) -> usize {
        match *self {
            StageSpec::Uniform { packets, .. }
            | StageSpec::Zipf { packets, .. }
            | StageSpec::ElephantMice { packets, .. }
            | StageSpec::Churn { packets, .. }
            | StageSpec::Burst { packets, .. } => packets,
            StageSpec::Adversarial { keys, repeats, .. } => keys * repeats,
        }
    }

    /// Short kind tag, which names the stage in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            StageSpec::Uniform { .. } => "uniform",
            StageSpec::Zipf { .. } => "zipf",
            StageSpec::ElephantMice { .. } => "elephant-mice",
            StageSpec::Churn { .. } => "churn",
            StageSpec::Burst { .. } => "burst",
            StageSpec::Adversarial { .. } => "adversarial",
        }
    }

    /// The first parameter outside this stage's generator domain, as
    /// `(parameter, reason)`; [`generate`](Self::generate) panics on it.
    pub(crate) fn out_of_domain(&self) -> Option<(&'static str, &'static str)> {
        const NON_ZERO: &str = "must be non-zero";
        const FRACTION: &str = "must be within [0, 1]";
        let fraction = |x: f64| (0.0..=1.0).contains(&x);
        match *self {
            StageSpec::Uniform { flows: 0, .. }
            | StageSpec::Zipf { flows: 0, .. }
            | StageSpec::Burst { flows: 0, .. } => Some(("flows", NON_ZERO)),
            StageSpec::Burst { max_burst: 0, .. } => Some(("max_burst", NON_ZERO)),
            StageSpec::ElephantMice { elephants: 0, .. } => Some(("elephants", NON_ZERO)),
            StageSpec::ElephantMice { mice: 0, .. } => Some(("mice", NON_ZERO)),
            StageSpec::ElephantMice {
                elephants, mice, ..
            } if elephants.checked_add(mice).is_none() => {
                Some(("mice", "plus `elephants` must fit in 64 bits"))
            }
            StageSpec::ElephantMice { elephant_share, .. } if !fraction(elephant_share) => {
                Some(("elephant_share", FRACTION))
            }
            StageSpec::Churn { live_flows: 0, .. } => Some(("live_flows", NON_ZERO)),
            StageSpec::Churn { churn_rate, .. } if !fraction(churn_rate) => {
                Some(("churn_rate", FRACTION))
            }
            StageSpec::Adversarial { repeats: 0, .. } => Some(("repeats", NON_ZERO)),
            StageSpec::Adversarial { keys, repeats, .. } if keys.checked_mul(repeats).is_none() => {
                Some(("repeats", "overflows the stage's packet count"))
            }
            StageSpec::Adversarial {
                table_buckets: 0, ..
            } => Some(("table_buckets", NON_ZERO)),
            StageSpec::Adversarial {
                target_buckets,
                table_buckets,
                ..
            } if target_buckets == 0 || target_buckets > table_buckets => {
                Some(("target_buckets", "must be within 1..=table_buckets"))
            }
            StageSpec::Adversarial { slot_bytes, .. } if !SLOT_BYTES.contains(&slot_bytes) => {
                Some((
                    "slot_bytes",
                    "must be within 14..=65 (a length byte plus a 5-tuple key, up to the widest key)",
                ))
            }
            _ => None,
        }
    }

    /// Generates this stage's descriptors from the given sub-seed.
    pub(crate) fn generate(&self, seed: u64) -> Vec<PacketDescriptor> {
        if let Some((key, reason)) = self.out_of_domain() {
            panic!("{} stage: `{key}` {reason}", self.kind());
        }
        match *self {
            StageSpec::Uniform { flows, packets } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let salt = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                (0..packets)
                    .map(|i| {
                        let rank = rng.gen_range(0..flows);
                        let key = FlowKey::from(FiveTuple::from_index(rank ^ salt));
                        PacketDescriptor::new(i as u64, key)
                    })
                    .collect()
            }
            StageSpec::Zipf {
                flows,
                exponent,
                packets,
            } => FabricTraceProfile {
                flows,
                exponent,
                seed,
            }
            .generate(packets),
            StageSpec::ElephantMice {
                elephants,
                mice,
                elephant_share,
                packets,
            } => ElephantMiceWorkload {
                elephants,
                mice,
                elephant_share,
                count: packets,
                seed,
            }
            .build(),
            StageSpec::Churn {
                live_flows,
                churn_rate,
                packets,
            } => ChurnWorkload {
                live_flows,
                churn_rate,
                count: packets,
                seed,
            }
            .build(),
            StageSpec::Burst {
                flows,
                max_burst,
                packets,
            } => BurstWorkload {
                flows,
                max_burst,
                count: packets,
                seed,
            }
            .build(),
            StageSpec::Adversarial {
                keys,
                target_buckets,
                table_buckets,
                hash_seed,
                slot_bytes,
                repeats,
            } => {
                let miner = CollisionMiner {
                    table_buckets,
                    target_buckets,
                    hash_seed,
                    slot_bytes,
                };
                let mined = miner.mine(keys, seed);
                let mut out = Vec::with_capacity(keys * repeats);
                for _ in 0..repeats {
                    for &k in &mined {
                        out.push(PacketDescriptor::new(out.len() as u64, k));
                    }
                }
                out
            }
        }
    }
}

/// A named, seeded workload scenario: an ordered list of generator
/// stages producing one reproducible descriptor stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (report and bench-row label).
    pub name: String,
    /// Master seed; every stage derives its own sub-seed from it.
    pub seed: u64,
    /// Generator stages, concatenated in order.
    pub stages: Vec<StageSpec>,
}

impl Scenario {
    /// An empty scenario; chain stage builders onto it.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Scenario {
            name: name.into(),
            seed,
            stages: Vec::new(),
        }
    }

    /// Appends an arbitrary stage.
    pub fn stage(mut self, stage: StageSpec) -> Self {
        self.stages.push(stage);
        self
    }

    /// Appends a uniform-popularity stage.
    pub fn uniform(self, flows: u64, packets: usize) -> Self {
        self.stage(StageSpec::Uniform { flows, packets })
    }

    /// Appends a Zipf-skewed stage.
    pub fn zipf(self, flows: u64, exponent: f64, packets: usize) -> Self {
        self.stage(StageSpec::Zipf {
            flows,
            exponent,
            packets,
        })
    }

    /// Appends an elephant/mice stage.
    pub fn elephant_mice(
        self,
        elephants: u64,
        mice: u64,
        elephant_share: f64,
        packets: usize,
    ) -> Self {
        self.stage(StageSpec::ElephantMice {
            elephants,
            mice,
            elephant_share,
            packets,
        })
    }

    /// Appends a churn stage.
    pub fn churn(self, live_flows: usize, churn_rate: f64, packets: usize) -> Self {
        self.stage(StageSpec::Churn {
            live_flows,
            churn_rate,
            packets,
        })
    }

    /// Appends a burst-train stage.
    pub fn burst(self, flows: u64, max_burst: usize, packets: usize) -> Self {
        self.stage(StageSpec::Burst {
            flows,
            max_burst,
            packets,
        })
    }

    /// Appends an adversarial collision stage targeting the table
    /// described by `cfg` (the attacker's knowledge is exactly the
    /// public table geometry).
    pub fn adversarial_for(
        self,
        cfg: &TableConfig,
        keys: usize,
        target_buckets: u32,
        repeats: usize,
    ) -> Self {
        self.stage(StageSpec::Adversarial {
            keys,
            target_buckets,
            table_buckets: cfg.buckets_per_mem,
            hash_seed: cfg.hash_seed,
            slot_bytes: cfg.entry_slot_bytes,
            repeats,
        })
    }

    /// Total packets across all stages.
    pub fn packets(&self) -> usize {
        self.stages.iter().map(StageSpec::packets).sum()
    }

    /// Materialises the descriptor stream: each stage generates from
    /// `splitmix(seed, index)`, streams concatenate in stage order, and
    /// sequence numbers are rewritten to be contiguous over the whole
    /// scenario. Pure: same spec + seed → identical stream.
    pub fn generate(&self) -> Vec<PacketDescriptor> {
        let mut out = Vec::with_capacity(self.packets());
        for (i, stage) in self.stages.iter().enumerate() {
            out.extend(stage.generate(stage_seed(self.seed, i)));
        }
        for (i, d) in out.iter_mut().enumerate() {
            d.seq = i as u64;
        }
        out
    }
}

/// Sub-seed of stage `index` (SplitMix64 finalizer over seed ⊕ index, so
/// reordering or editing one stage never perturbs the others).
pub(crate) fn stage_seed(seed: u64, index: usize) -> u64 {
    let mut z = (seed ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn stages_concatenate_and_resequence() {
        let s = Scenario::new("mix", 9)
            .uniform(10, 100)
            .burst(4, 16, 50)
            .churn(20, 0.05, 25);
        let ds = s.generate();
        assert_eq!(ds.len(), 175);
        assert_eq!(s.packets(), 175);
        for (i, d) in ds.iter().enumerate() {
            assert_eq!(d.seq, i as u64);
        }
    }

    #[test]
    fn generation_is_pure() {
        let s = Scenario::new("p", 1).zipf(100, 0.9, 500).uniform(50, 200);
        assert_eq!(s.generate(), s.generate());
    }

    #[test]
    fn seed_perturbs_every_stage() {
        let a = Scenario::new("a", 1).uniform(100, 200);
        let b = Scenario::new("a", 2).uniform(100, 200);
        assert_ne!(a.generate(), b.generate());
    }

    #[test]
    fn stages_draw_disjoint_key_spaces() {
        // Two uniform stages over the same rank range: the per-stage
        // sub-seed salts the tuple mapping, so their key sets differ.
        let s = Scenario::new("d", 3).uniform(50, 300).uniform(50, 300);
        let ds = s.generate();
        let first: HashSet<_> = ds[..300].iter().map(|d| d.key).collect();
        let second: HashSet<_> = ds[300..].iter().map(|d| d.key).collect();
        assert!(first.intersection(&second).count() == 0);
    }

    #[test]
    fn adversarial_stage_repeats_the_mined_set() {
        let cfg = TableConfig::test_small();
        let s = Scenario::new("syn", 4).adversarial_for(&cfg, 8, 8, 3);
        let ds = s.generate();
        assert_eq!(ds.len(), 24);
        let distinct: HashSet<_> = ds.iter().map(|d| d.key).collect();
        assert_eq!(distinct.len(), 8);
        assert_eq!(ds[0].key, ds[8].key, "rounds repeat the key order");
    }
}
