//! Streaming resident generation for metro-scale populations.
//!
//! The batch generator ([`crate::generator::generate`]) materializes every
//! resident plus their full GPS trace; at 2M residents that is tens of
//! gigabytes and minutes of work. [`ResidentStream`] instead derives any
//! resident *independently* from `(seed, index)` via a splitmix64-keyed
//! per-resident RNG, so callers can reach any of millions of residents
//! without ever holding the population. [`generate_streamed`] builds on it
//! to produce a deterministic evenly-strided sample of the metro population
//! whose [`GenerationOutput`] plugs into the existing rescue-mining
//! pipeline unchanged, while `total_residents` records the true population
//! size. Because no resident depends on another, the sample is simulated
//! in blocks on every core and joined in index order.

use crate::generator::{sample_person, simulate_person, GenerationOutput, PopulationConfig};
use crate::person::{Person, PersonId};
use crate::trace::MobilityDataset;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_roadnet::generator::City;
use mobirescue_roadnet::geo::GeoPoint;
use mobirescue_roadnet::pool;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Domain tag for per-resident *sampling* RNGs (home/work/profile).
const PERSON_MAGIC: u64 = 0x7265_7369_6465_6e74; // "resident"
/// Domain tag for per-resident *trace* RNGs (trips, sheltering, rescue).
const TRACE_MAGIC: u64 = 0x6d65_7472_6f70_696e; // "metropin"

/// Consecutive sampled residents one worker simulates as one work item.
const BLOCK_RESIDENTS: usize = 64;
/// Sampled residents per round of blocks. Each round is appended to the
/// output and dropped before the next starts, so the join never holds more
/// than one round of pings outside the final array.
const ROUND_RESIDENTS: usize = 8 * BLOCK_RESIDENTS;

/// splitmix64 finalizer: mixes `(seed, index)` into a statistically
/// independent 64-bit stream key. This is the standard seeding mixer
/// (Vigna 2015) — consecutive indices land in unrelated RNG states, which
/// is what makes per-resident streams independent of generation order.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// RNG for resident `index` of the population keyed by `seed` and `domain`.
fn resident_rng(seed: u64, domain: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ domain).wrapping_add(splitmix64(index)))
}

/// A lazily generated metro population: any resident is derived on demand
/// from `(seed, index)`, so reaching any of 2M residents needs memory for
/// one resident, not one population.
pub struct ResidentStream<'a> {
    city: &'a City,
    config: &'a PopulationConfig,
    landmarks: Vec<GeoPoint>,
    seed: u64,
}

impl<'a> ResidentStream<'a> {
    /// A stream over the `config.num_people` residents of `city`.
    ///
    /// # Panics
    ///
    /// Panics if the population is empty.
    pub fn new(city: &'a City, config: &'a PopulationConfig, seed: u64) -> Self {
        assert!(config.num_people > 0, "population must be non-empty");
        let landmarks = city.network.landmarks().map(|lm| lm.position).collect();
        Self {
            city,
            config,
            landmarks,
            seed,
        }
    }

    /// Total residents this stream describes.
    pub fn total(&self) -> usize {
        self.config.num_people
    }

    /// Materializes resident `index` (independent of any other resident —
    /// random access is O(1) in population size).
    ///
    /// # Panics
    ///
    /// Panics if `index >= total()`.
    pub fn resident(&self, index: u64) -> Person {
        assert!(
            (index as usize) < self.config.num_people,
            "resident {index} out of a population of {}",
            self.config.num_people
        );
        let mut rng = resident_rng(self.seed, PERSON_MAGIC, index);
        sample_person(
            self.city,
            self.config,
            &self.landmarks,
            PersonId(index as u32),
            &mut rng,
        )
    }
}

/// Generates a deterministic dataset for a metro-scale population by
/// streaming residents and materializing traces for an evenly strided
/// sample of at most `cap` of them. Sampled residents get dense re-indexed
/// [`PersonId`]s (`0..sampled`) so downstream per-person arrays stay small;
/// `total_residents` preserves the true population size for rate math.
///
/// Each sampled resident's trace comes from its own `(seed, global index)`
/// RNG. So the sample is simulated in fixed blocks of consecutive residents
/// on every available core, and the blocks are appended in index order: the
/// output is bit-identical for any thread count, and two runs with the same
/// seed agree resident-by-resident. Blocks run in fixed rounds, each
/// appended and dropped before the next, which bounds the memory the join
/// holds beyond the output to one round's pings.
///
/// # Panics
///
/// Panics if `cap == 0`, the ping interval is empty, or the city has no
/// hospitals.
pub fn generate_streamed(
    city: &City,
    scenario: &DisasterScenario,
    config: &PopulationConfig,
    seed: u64,
    cap: usize,
) -> GenerationOutput {
    assert!(cap > 0, "sample cap must be positive");
    assert!(
        0 < config.ping_interval_min && config.ping_interval_min <= config.ping_interval_max,
        "ping interval must be a non-empty range"
    );
    assert!(!city.hospitals.is_empty(), "city must have hospitals");
    let stream = ResidentStream::new(city, config, seed);
    let total = stream.total();
    let sampled = cap.min(total);
    let stride = total as u64 / sampled as u64;

    let hospital_pos: Vec<GeoPoint> = city
        .hospitals
        .iter()
        .map(|&h| city.network.landmark(h).position)
        .collect();

    // A resident pings at most once per `ping_interval_min`. Reserving that
    // bound means a block's pings are never copied while they grow, so a
    // round in flight costs about its pings and no freed copies besides.
    let max_pings = (scenario.total_hours() * 60 / config.ping_interval_min) as usize + 1;
    // A block's `(people, pings, true rescues)`. Sampled resident `k` is
    // global resident `k * stride`, re-indexed as `k`.
    let simulate_block = |_: usize, &(start, end): &(usize, usize)| {
        let mut people = Vec::with_capacity(end - start);
        let mut pings = Vec::with_capacity((end - start) * max_pings);
        let mut true_rescues = Vec::new();
        for k in start as u64..end as u64 {
            let global = k * stride;
            let mut person = stream.resident(global);
            person.id = PersonId(k as u32);
            let mut rng = resident_rng(seed, TRACE_MAGIC, global);
            simulate_person(
                &person,
                city,
                scenario,
                config,
                &hospital_pos,
                &mut rng,
                &mut pings,
                &mut true_rescues,
            );
            people.push(person);
        }
        (people, pings, true_rescues)
    };

    let threads = pool::available_threads();
    let mut people = Vec::with_capacity(sampled);
    let mut pings = Vec::new();
    let mut true_rescues = Vec::new();
    for round in (0..sampled).step_by(ROUND_RESIDENTS) {
        let round_end = (round + ROUND_RESIDENTS).min(sampled);
        let blocks: Vec<(usize, usize)> = (round..round_end)
            .step_by(BLOCK_RESIDENTS)
            .map(|start| (start, (start + BLOCK_RESIDENTS).min(round_end)))
            .collect();
        for (block_people, block_pings, block_rescues) in
            pool::parallel_map(threads, &blocks, simulate_block)
        {
            people.extend(block_people);
            pings.extend(block_pings);
            true_rescues.extend(block_rescues);
        }
    }

    GenerationOutput {
        dataset: MobilityDataset { people, pings },
        true_rescues,
        total_residents: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobirescue_disaster::hurricane::Hurricane;
    use mobirescue_roadnet::generator::CityConfig;

    fn setup() -> (City, DisasterScenario) {
        let city = CityConfig::small().build(77);
        let scenario = DisasterScenario::new(&city, Hurricane::florence(), 77);
        (city, scenario)
    }

    /// The per-resident loop `generate_streamed` runs in parallel blocks,
    /// run sequentially: one resident after another into one output.
    fn sequential_reference(
        city: &City,
        scenario: &DisasterScenario,
        config: &PopulationConfig,
        seed: u64,
        cap: usize,
    ) -> GenerationOutput {
        let stream = ResidentStream::new(city, config, seed);
        let total = stream.total();
        let sampled = cap.min(total);
        let stride = total as u64 / sampled as u64;
        let hospital_pos: Vec<GeoPoint> = city
            .hospitals
            .iter()
            .map(|&h| city.network.landmark(h).position)
            .collect();
        let mut people = Vec::with_capacity(sampled);
        let mut pings = Vec::new();
        let mut true_rescues = Vec::new();
        for k in 0..sampled as u64 {
            let global = k * stride;
            let mut person = stream.resident(global);
            person.id = PersonId(k as u32);
            let mut rng = resident_rng(seed, TRACE_MAGIC, global);
            simulate_person(
                &person,
                city,
                scenario,
                config,
                &hospital_pos,
                &mut rng,
                &mut pings,
                &mut true_rescues,
            );
            people.push(person);
        }
        GenerationOutput {
            dataset: MobilityDataset { people, pings },
            true_rescues,
            total_residents: total,
        }
    }

    #[test]
    fn parallel_blocks_match_the_sequential_loop() {
        let (city, scenario) = setup();
        let mut config = PopulationConfig::small();
        config.num_people = 30_000;
        // Two full rounds, then a round of one full block and a partial one.
        let cap = 2 * ROUND_RESIDENTS + BLOCK_RESIDENTS + 13;
        let parallel = generate_streamed(&city, &scenario, &config, 11, cap);
        let sequential = sequential_reference(&city, &scenario, &config, 11, cap);
        assert_eq!(parallel.dataset.num_people(), cap);
        assert!(!parallel.true_rescues.is_empty(), "the sample sees rescues");
        assert_eq!(parallel.dataset.people, sequential.dataset.people);
        assert_eq!(parallel.dataset.pings, sequential.dataset.pings);
        assert_eq!(parallel.true_rescues, sequential.true_rescues);
        assert_eq!(parallel.total_residents, sequential.total_residents);
    }

    #[test]
    fn stream_is_seed_deterministic() {
        let (city, _) = setup();
        let config = PopulationConfig::small();
        let a = ResidentStream::new(&city, &config, 41);
        let b = ResidentStream::new(&city, &config, 41);
        let c = ResidentStream::new(&city, &config, 42);
        assert_eq!(a.resident(123), b.resident(123));
        assert_ne!(a.resident(123), c.resident(123));
    }

    #[test]
    fn streamed_generation_is_deterministic_and_records_population() {
        let (city, scenario) = setup();
        let mut config = PopulationConfig::small();
        config.num_people = 10_000;
        let a = generate_streamed(&city, &scenario, &config, 5, 64);
        let b = generate_streamed(&city, &scenario, &config, 5, 64);
        assert_eq!(a.dataset.num_people(), 64);
        assert_eq!(a.total_residents, 10_000);
        assert_eq!(a.dataset.people, b.dataset.people);
        assert_eq!(a.dataset.pings, b.dataset.pings);
        assert_eq!(a.true_rescues.len(), b.true_rescues.len());
    }

    #[test]
    fn sample_is_stride_stable_under_larger_cap() {
        // Doubling the cap keeps every previously sampled resident's trace
        // identical per global index: traces are keyed by global index, not
        // by sample position.
        let (city, scenario) = setup();
        let mut config = PopulationConfig::small();
        config.num_people = 1_000;
        let narrow = generate_streamed(&city, &scenario, &config, 5, 10);
        let wide = generate_streamed(&city, &scenario, &config, 5, 20);
        // Global stride 100 vs 50: narrow's k-th resident is wide's 2k-th.
        for k in 0..10usize {
            assert_eq!(
                narrow.dataset.people[k].home,
                wide.dataset.people[2 * k].home,
                "sampled resident {k} drifted with cap"
            );
        }
    }

    #[test]
    fn cap_beyond_population_materializes_everyone() {
        let (city, scenario) = setup();
        let mut config = PopulationConfig::small();
        config.num_people = 17;
        let out = generate_streamed(&city, &scenario, &config, 5, 1_000);
        assert_eq!(out.dataset.num_people(), 17);
        assert_eq!(out.total_residents, 17);
    }
}
