//! The fabric supervisor's event log against a reference machine: the
//! log of every fabric run is replayed from the initial placement, each
//! transition must be legal where it happens, the replay must end in the
//! states the supervisor reports, and each worker fault the schedule
//! scripted must be logged as exactly one death with the scripted cause.

use std::collections::BTreeMap;

use pimdl::engine::fabric::DEFAULT_VNODES;
use pimdl::serve::{Cause, HashRing, ShardState, SupervisorEvent, TableState, Transition};

use super::Run;

/// A worker fault a schedule scripted: shard `shard` must die of `cause`
/// if the loop still runs at `at_s` (it may exit at that very instant,
/// having seen it), and must not die of it otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    pub shard: u32,
    pub cause: Cause,
    pub at_s: f64,
}

/// The fabric a run served: its shards and tables.
pub struct Fleet<'a> {
    pub num_shards: usize,
    pub tables: &'a [(String, u64)],
}

/// The supervisor's state machine, written from its module doc.
struct Reference {
    shards: Vec<ShardState>,
    tables: BTreeMap<String, TableState>,
    /// The live shards' ring: placement after a death.
    ring: HashRing,
    /// Tables a death has not yet re-placed: the events right after a
    /// shard's death must move exactly these.
    orphans: Vec<String>,
}

impl Reference {
    /// Every shard `Connecting`, every table `Loading` on its owner.
    fn new(fleet: &Fleet) -> Reference {
        let mut ring = HashRing::new(DEFAULT_VNODES);
        for s in 0..fleet.num_shards as u32 {
            ring.add_shard(s);
        }
        let tables = fleet
            .tables
            .iter()
            .map(|(name, _)| {
                (
                    name.clone(),
                    TableState::Loading(ring.owner_of(name).unwrap()),
                )
            })
            .collect();
        Reference {
            shards: vec![ShardState::Connecting; fleet.num_shards],
            tables,
            ring,
            orphans: Vec::new(),
        }
    }

    /// Applies `e`, or says why it is not a legal transition here.
    fn apply(&mut self, e: &SupervisorEvent) -> Result<(), String> {
        use ShardState::{Connecting, Dead, Ready};
        match (&e.to, e.cause) {
            (Transition::Table(name, to), Cause::OwnerDied | Cause::NoLiveShard) => {
                let at = self.orphans.iter().position(|o| o == name);
                let at = at.ok_or(format!("{name} moved but its owner did not die"))?;
                self.orphans.remove(at);
                let placed = match self.ring.owner_of(name) {
                    Some(succ) => (TableState::Loading(succ), Cause::OwnerDied),
                    None => (TableState::Lost, Cause::NoLiveShard),
                };
                if placed != (*to, e.cause) {
                    return Err(format!(
                        "{name} placed {to:?}, the live ring says {placed:?}"
                    ));
                }
                self.tables.insert(name.clone(), *to);
                return Ok(());
            }
            _ if !self.orphans.is_empty() => {
                return Err(format!("{:?} still to re-place", self.orphans));
            }
            (&Transition::Shard(s, Ready), Cause::Hello) => {
                let state = &mut self.shards[s as usize];
                if *state != Connecting {
                    return Err(format!("Hello from shard {s} in {state:?}"));
                }
                *state = Ready;
            }
            (&Transition::Shard(s, Dead), Cause::Eof | Cause::Protocol | Cause::Timeout) => {
                let state = &mut self.shards[s as usize];
                // A worker that never said `Hello` owns no connection the
                // loop could see fail: only its deadline kills it.
                if *state == Dead || (*state == Connecting && e.cause != Cause::Timeout) {
                    return Err(format!("shard {s} in {state:?} died of {:?}", e.cause));
                }
                *state = Dead;
                self.ring.remove_shard(s);
                self.orphans = (self.tables.iter())
                    .filter(|(_, t)| {
                        matches!(t, TableState::Loading(o) | TableState::Ready(o) if *o == s)
                    })
                    .map(|(name, _)| name.clone())
                    .collect();
            }
            (Transition::Table(name, TableState::Ready(s)), Cause::TableReady) => {
                let state = self.tables.get_mut(name).ok_or(format!("unknown {name}"))?;
                if *state != TableState::Loading(*s) || self.shards[*s as usize] != Ready {
                    return Err(format!("{name} ready on shard {s} while {state:?}"));
                }
                *state = TableState::Ready(*s);
            }
            _ => return Err("no such transition".to_string()),
        }
        Ok(())
    }
}

/// Replays `log` (with `total` events ever logged) of `run` over
/// `fleet`, and checks it against `faults`, when the script listed them
/// all (see the module doc).
pub fn check(
    log: &[SupervisorEvent],
    total: u64,
    fleet: &Fleet,
    run: &Run,
    faults: Option<&[Fault]>,
) {
    let end_s = run.end_s;
    assert_eq!(total, log.len() as u64, "the event ring overflowed");
    let mut reference = Reference::new(fleet);
    let mut last_s = f64::NEG_INFINITY;
    for e in log {
        assert!(
            last_s <= e.at_s && e.at_s <= end_s,
            "event out of time order or after the run: {e:?}"
        );
        last_s = e.at_s;
        if let Err(why) = reference.apply(e) {
            panic!("illegal supervisor transition {e:?}: {why}\nlog: {log:#?}");
        }
    }
    assert!(reference.orphans.is_empty(), "a death left tables unplaced");
    let shards: Vec<Option<ShardState>> = reference.shards.into_iter().map(Some).collect();
    assert_eq!(shards, run.shard_states, "replayed shard states");
    let tables: Vec<(String, Option<TableState>)> = (fleet.tables.iter())
        .map(|(name, _)| (name.clone(), reference.tables.get(name).copied()))
        .collect();
    assert_eq!(tables, run.table_states, "replayed table states");

    let Some(faults) = faults else { return };
    for shard in 0..fleet.num_shards as u32 {
        let deaths: Vec<Cause> = (log.iter())
            .filter(|e| e.to == Transition::Shard(shard, ShardState::Dead))
            .map(|e| e.cause)
            .collect();
        // A worker can carry two faults (its own and a forged frame):
        // the first the loop sees kills it.
        let due: Vec<Cause> = (faults.iter())
            .filter(|f| f.shard == shard && f.at_s <= end_s)
            .map(|f| f.cause)
            .collect();
        let logged = match deaths[..] {
            [] => due.is_empty(),
            [cause] => due.contains(&cause),
            _ => false,
        };
        assert!(
            logged,
            "shard {shard} died of {deaths:?}, its faults due by {end_s} {due:?}\nlog: {log:#?}"
        );
    }
}
