//! Shard supervisor for the distributed fabric (DESIGN.md §13): table
//! placement by consistent hashing, the per-shard/per-table state
//! machine, and dead-shard re-replication.
//!
//! The supervisor owns no sockets — the fabric loop
//! ([`crate::fabric::FabricServerLoop`]) feeds it protocol events
//! (`Hello`, `TableReady`, EOF, timeouts) and acts on its verdicts (which
//! shard to load a table on, where a query routes, which shards are
//! overdue). Keeping it transport-free means the same state machine runs
//! under the deterministic [`crate::SimPoller`] tests and the real epoll
//! reactor, and can be unit-tested without either.
//!
//! ## Placement
//!
//! Each non-dead shard contributes `vnodes` points to a hash ring
//! (FNV-1a, 64-bit); a table lives on the shard owning the first ring
//! point at or after the table's own hash. When a shard dies its points
//! leave the ring, so every table it held moves to its consistent-hash
//! successor — and only those tables move.
//!
//! ## States
//!
//! ```text
//! shard:  Connecting --Hello--> Ready --EOF/timeout--> Dead
//! table:  Loading(shard) --TableReady--> Ready(shard)
//!                        --owner died--> Loading(successor) | Lost
//! ```
//!
//! A `Lost` table (no live shard remains) is terminal until a new fabric
//! is built; the loop error-responds its queued queries instead of
//! dropping them.
//!
//! ## Event log
//!
//! Every transition above is appended to an [`EventLog`], a ring of the
//! last [`EVENT_LOG_CAPACITY`] events, each with its time on the loop's
//! clock and its [`Cause`]. The log only reads the clock the loop already
//! passes in, so it changes no behaviour; [`crate::FabricHandle`] shares
//! it with other threads.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

use crate::error::ServeError;
use crate::reactor::Token;
use crate::Result;

/// 64-bit FNV-1a over `bytes`, pushed through a MurmurHash3-style
/// avalanche finalizer. Raw FNV-1a leaves the *high* bits of similar
/// short keys nearly identical (`table-0` … `table-9` all share their top
/// 16 bits), which would cluster every ring lookup onto one arc; the
/// finalizer spreads every input bit across the whole word. Deterministic
/// across runs and platforms — placement must be reproducible.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Consistent-hash ring over shard ids.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    points: BTreeMap<u64, u32>,
    vnodes: usize,
}

impl HashRing {
    /// An empty ring with `vnodes` points per shard.
    pub fn new(vnodes: usize) -> Self {
        HashRing {
            points: BTreeMap::new(),
            vnodes,
        }
    }

    /// Adds `vnodes` points for a shard. Colliding hashes keep the
    /// smaller shard id (deterministic, and vanishingly rare at 64 bits).
    pub fn add_shard(&mut self, shard: u32) {
        for v in 0..self.vnodes {
            let key = fnv1a(format!("shard/{shard}/{v}").as_bytes());
            let entry = self.points.entry(key).or_insert(shard);
            *entry = (*entry).min(shard);
        }
    }

    /// Removes a shard's points (its tables move to their successors).
    pub fn remove_shard(&mut self, shard: u32) {
        self.points.retain(|_, s| *s != shard);
    }

    /// The shard owning `table`: the first ring point at or after the
    /// table's hash, wrapping. `None` on an empty ring.
    pub fn owner_of(&self, table: &str) -> Option<u32> {
        let h = fnv1a(table.as_bytes());
        self.points
            .range(h..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, &s)| s)
    }

    /// Number of distinct shards on the ring.
    pub fn shards(&self) -> usize {
        let mut ids: Vec<u32> = self.points.values().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// Lifecycle of one worker process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Spawned (or expected) but no `Hello` yet.
    Connecting,
    /// Hello'd; its connection token is live.
    Ready,
    /// EOF or timeout; its ring points are gone.
    Dead,
}

/// Residency of one LUT table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableState {
    /// Assigned to a shard; `LoadTable` sent or pending its `Hello`.
    Loading(u32),
    /// `TableReady` received; queries route to this shard.
    Ready(u32),
    /// No live shard remains to hold it.
    Lost,
}

/// Why a shard or a table changed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// The worker's `Hello`: shard `Connecting → Ready`.
    Hello,
    /// The shard's `TableReady`: table `Loading(s) → Ready(s)`, on its
    /// first load and on a re-replication alike.
    TableReady,
    /// The shard's connection reached EOF or failed an I/O operation:
    /// shard `→ Dead`.
    Eof,
    /// The shard sent a frame that does not decode or that its state does
    /// not allow, and the loop failed its connection: shard `→ Dead`.
    Protocol,
    /// A protocol deadline passed with no `Hello` (or, on a `Ready` shard,
    /// with a load unconfirmed): shard `→ Dead`.
    Timeout,
    /// The table's owner died, so it is re-replicated on its
    /// consistent-hash successor: table `→ Loading(successor)`.
    OwnerDied,
    /// The table's owner died and no live shard remains: table `→ Lost`.
    NoLiveShard,
}

/// The state a shard or a table moved to.
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    /// Shard `id` moved to the state.
    Shard(u32, ShardState),
    /// The named table moved to the state.
    Table(String, TableState),
}

/// One entry of the supervisor's [`EventLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorEvent {
    /// The loop-clock time of the transition.
    pub at_s: f64,
    /// What moved, and to which state.
    pub to: Transition,
    /// Why it moved.
    pub cause: Cause,
}

/// Events the [`EventLog`] keeps; older ones are overwritten. A fabric
/// logs a handful per worker death, so this covers many deaths.
pub const EVENT_LOG_CAPACITY: usize = 256;

/// The supervisor's transitions, newest last: a bounded ring shared by
/// handle (clones read and write the same ring). Its lock is only ever
/// taken alone, to append one event or to copy the ring out.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    ring: Arc<Mutex<Ring>>,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<SupervisorEvent>,
    total: u64,
}

impl EventLog {
    fn push(&self, at_s: f64, to: Transition, cause: Cause) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.events.len() == EVENT_LOG_CAPACITY {
            ring.events.pop_front();
        }
        ring.events.push_back(SupervisorEvent { at_s, to, cause });
        ring.total += 1;
    }

    /// The kept events, oldest first, and the number of events ever
    /// logged (more than the kept ones once the ring has wrapped).
    pub fn read(&self) -> (Vec<SupervisorEvent>, u64) {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        (ring.events.iter().cloned().collect(), ring.total)
    }
}

#[derive(Debug)]
struct ShardInfo {
    state: ShardState,
    token: Option<Token>,
    /// Absolute deadline for the next expected protocol step (`Hello`
    /// while `Connecting`, `TableReady` while tables load); `INFINITY`
    /// when nothing is owed.
    deadline_s: f64,
}

#[derive(Debug)]
struct TableInfo {
    seed: u64,
    state: TableState,
}

/// A re-replication order the fabric loop must act on: send
/// `LoadTable { table, seed }` to `shard` (now, if it is `Ready`, or on
/// its `Hello`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadOrder {
    /// Table to (re-)replicate.
    pub table: String,
    /// Its deterministic build seed.
    pub seed: u64,
    /// Destination shard.
    pub shard: u32,
}

/// The fabric's placement and liveness authority.
#[derive(Debug)]
pub struct Supervisor {
    ring: HashRing,
    shards: BTreeMap<u32, ShardInfo>,
    tables: BTreeMap<String, TableInfo>,
    timeout_s: f64,
    log: EventLog,
}

impl Supervisor {
    /// A supervisor expecting `num_shards` workers and placing `tables`
    /// (name, build-seed pairs) over them. Every shard starts
    /// `Connecting` with a `Hello` deadline of `now + timeout_s`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for zero shards/vnodes, more shards
    /// than `u32` ids, a non-finite or non-positive timeout, empty table sets, or duplicate
    /// table names.
    pub fn new(
        num_shards: usize,
        vnodes: usize,
        timeout_s: f64,
        now: f64,
        tables: &[(String, u64)],
    ) -> Result<Self> {
        if num_shards == 0 || vnodes == 0 {
            return Err(ServeError::Config {
                detail: format!("supervisor needs >= 1 shard and vnode, got {num_shards}/{vnodes}"),
            });
        }
        if !timeout_s.is_finite() || timeout_s <= 0.0 {
            return Err(ServeError::Config {
                detail: format!("supervisor timeout must be finite and > 0, got {timeout_s}"),
            });
        }
        if tables.is_empty() {
            return Err(ServeError::Config {
                detail: "supervisor needs at least one table".to_string(),
            });
        }
        let count = u32::try_from(num_shards).map_err(|_| ServeError::Config {
            detail: format!("supervisor shard count {num_shards} exceeds the u32 shard ids"),
        })?;
        let mut ring = HashRing::new(vnodes);
        let mut shards = BTreeMap::new();
        for id in 0..count {
            ring.add_shard(id);
            shards.insert(
                id,
                ShardInfo {
                    state: ShardState::Connecting,
                    token: None,
                    deadline_s: now + timeout_s,
                },
            );
        }
        let mut table_map = BTreeMap::new();
        for (name, seed) in tables {
            let owner = ring.owner_of(name).ok_or_else(|| ServeError::Config {
                detail: "empty hash ring".to_string(),
            })?;
            let prev = table_map.insert(
                name.clone(),
                TableInfo {
                    seed: *seed,
                    state: TableState::Loading(owner),
                },
            );
            if prev.is_some() {
                return Err(ServeError::Config {
                    detail: format!("duplicate fabric table {name:?}"),
                });
            }
        }
        Ok(Supervisor {
            ring,
            shards,
            tables: table_map,
            timeout_s,
            log: EventLog::default(),
        })
    }

    /// The log this supervisor appends its transitions to.
    pub fn events(&self) -> &EventLog {
        &self.log
    }

    /// Appends transitions to `log` from now on (one another thread
    /// holds a clone of).
    pub(crate) fn log_into(&mut self, log: EventLog) {
        self.log = log;
    }

    /// A worker's `Hello`: binds its connection token and returns the
    /// load orders for every table currently assigned to it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for an unknown shard id, a duplicate
    /// `Hello`, or a `Hello` from a shard already declared dead.
    pub fn on_hello(&mut self, shard: u32, token: Token, now: f64) -> Result<Vec<LoadOrder>> {
        let info = self.shards.get_mut(&shard).ok_or_else(|| ServeError::Io {
            detail: format!("Hello from unknown shard {shard}"),
        })?;
        match info.state {
            ShardState::Connecting => {}
            ShardState::Ready => {
                return Err(ServeError::Io {
                    detail: format!("duplicate Hello from shard {shard}"),
                });
            }
            ShardState::Dead => {
                return Err(ServeError::Io {
                    detail: format!("Hello from dead shard {shard}"),
                });
            }
        }
        info.state = ShardState::Ready;
        info.token = Some(token);
        let to = Transition::Shard(shard, ShardState::Ready);
        self.log.push(now, to, Cause::Hello);
        let orders = self.orders_for(shard);
        self.rearm_deadline(shard, now);
        Ok(orders)
    }

    /// A worker's `TableReady`: the table becomes routable on `shard`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the table is unknown or not loading
    /// on that shard (a stale ready from a previous owner is a protocol
    /// violation — the loop treats it as a poisoned shard stream).
    pub fn on_table_ready(&mut self, shard: u32, table: &str, now: f64) -> Result<()> {
        let info = self.tables.get_mut(table).ok_or_else(|| ServeError::Io {
            detail: format!("TableReady for unknown table {table:?}"),
        })?;
        if info.state != TableState::Loading(shard) {
            return Err(ServeError::Io {
                detail: format!(
                    "TableReady for {table:?} from shard {shard} but table is {:?}",
                    info.state
                ),
            });
        }
        info.state = TableState::Ready(shard);
        let to = Transition::Table(table.to_string(), info.state);
        self.log.push(now, to, Cause::TableReady);
        self.rearm_deadline(shard, now);
        Ok(())
    }

    /// Declares a shard dead for `cause` ([`Cause::Eof`],
    /// [`Cause::Protocol`] or [`Cause::Timeout`]): its ring points leave,
    /// and every table it held or was loading is re-placed on its
    /// consistent-hash successor. Returns the load orders for successors
    /// that are already `Ready` — orders for still-`Connecting`
    /// successors are delivered by their own `on_hello`. Tables with no
    /// live shard left become [`TableState::Lost`].
    pub fn mark_dead(&mut self, shard: u32, now: f64, cause: Cause) -> Vec<LoadOrder> {
        let Some(info) = self.shards.get_mut(&shard) else {
            return Vec::new();
        };
        if info.state == ShardState::Dead {
            return Vec::new();
        }
        info.state = ShardState::Dead;
        info.token = None;
        info.deadline_s = f64::INFINITY;
        self.ring.remove_shard(shard);
        let to = Transition::Shard(shard, ShardState::Dead);
        self.log.push(now, to, cause);

        let mut orders = Vec::new();
        let names: Vec<String> = self.tables.keys().cloned().collect();
        for name in names {
            let Some(t) = self.tables.get(&name) else {
                continue;
            };
            let held = matches!(
                t.state,
                TableState::Loading(s) | TableState::Ready(s) if s == shard
            );
            if !held {
                continue;
            }
            let seed = t.seed;
            let (state, cause) = match self.ring.owner_of(&name) {
                Some(succ) => (TableState::Loading(succ), Cause::OwnerDied),
                None => (TableState::Lost, Cause::NoLiveShard),
            };
            if let Some(t) = self.tables.get_mut(&name) {
                t.state = state;
            }
            self.log
                .push(now, Transition::Table(name.clone(), state), cause);
            if let TableState::Loading(succ) = state {
                if self.shards.get(&succ).map(|s| s.state) == Some(ShardState::Ready) {
                    orders.push(LoadOrder {
                        table: name,
                        seed,
                        shard: succ,
                    });
                    self.rearm_deadline(succ, now);
                }
            }
        }
        orders
    }

    /// Shards whose protocol deadline has passed at `now` (the loop marks
    /// them dead).
    pub fn expired(&self, now: f64) -> Vec<u32> {
        self.shards
            .iter()
            .filter(|(_, s)| s.state != ShardState::Dead && now > s.deadline_s)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The earliest pending protocol deadline (for the loop's wait
    /// timeout); `None` when nothing is owed.
    pub fn next_deadline_s(&self) -> Option<f64> {
        let d = self
            .shards
            .values()
            .filter(|s| s.state != ShardState::Dead)
            .map(|s| s.deadline_s)
            .fold(f64::INFINITY, f64::min);
        d.is_finite().then_some(d)
    }

    /// Where queries for `table` route right now: the owning shard's
    /// connection token, only while the table is `Ready` on a `Ready`
    /// shard.
    pub fn route(&self, table: &str) -> Option<(u32, Token)> {
        let t = self.tables.get(table)?;
        let TableState::Ready(shard) = t.state else {
            return None;
        };
        let s = self.shards.get(&shard)?;
        if s.state != ShardState::Ready {
            return None;
        }
        Some((shard, s.token?))
    }

    /// The shard a connection token belongs to, if any.
    pub fn shard_by_token(&self, token: Token) -> Option<u32> {
        self.shards
            .iter()
            .find(|(_, s)| s.token == Some(token))
            .map(|(&id, _)| id)
    }

    /// A shard's live connection token.
    pub fn token_of(&self, shard: u32) -> Option<Token> {
        self.shards.get(&shard).and_then(|s| s.token)
    }

    /// A shard's lifecycle state (`None` for an unknown id).
    pub fn shard_state(&self, shard: u32) -> Option<ShardState> {
        self.shards.get(&shard).map(|s| s.state)
    }

    /// A table's residency state (`None` for an unknown name).
    pub fn table_state(&self, table: &str) -> Option<TableState> {
        self.tables.get(table).map(|t| t.state)
    }

    /// Live (`Ready`) shard connection tokens, in shard-id order.
    pub fn live_tokens(&self) -> Vec<Token> {
        self.shards
            .values()
            .filter(|s| s.state == ShardState::Ready)
            .filter_map(|s| s.token)
            .collect()
    }

    /// Whether every table is routable (`Ready` on a live shard).
    pub fn all_tables_ready(&self) -> bool {
        self.tables.keys().all(|name| self.route(name).is_some())
    }

    /// Whether any table is terminally lost.
    pub fn any_table_lost(&self) -> bool {
        self.tables.values().any(|t| t.state == TableState::Lost)
    }

    /// Load orders owed to `shard` right now (tables assigned to it and
    /// still loading).
    fn orders_for(&self, shard: u32) -> Vec<LoadOrder> {
        self.tables
            .iter()
            .filter(|(_, t)| t.state == TableState::Loading(shard))
            .map(|(name, t)| LoadOrder {
                table: name.clone(),
                seed: t.seed,
                shard,
            })
            .collect()
    }

    /// Re-arms a shard's protocol deadline: `now + timeout` while it owes
    /// a `Hello` or any `TableReady`, else infinity.
    fn rearm_deadline(&mut self, shard: u32, now: f64) {
        let owes = match self.shards.get(&shard).map(|s| s.state) {
            Some(ShardState::Connecting) => true,
            Some(ShardState::Ready) => self
                .tables
                .values()
                .any(|t| t.state == TableState::Loading(shard)),
            _ => false,
        };
        if let Some(s) = self.shards.get_mut(&shard) {
            s.deadline_s = if owes {
                now + self.timeout_s
            } else {
                f64::INFINITY
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables(names: &[&str]) -> Vec<(String, u64)> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), 100 + i as u64))
            .collect()
    }

    #[test]
    fn ring_is_deterministic_and_moves_only_the_dead_shards_tables() {
        let names: Vec<String> = (0..40).map(|i| format!("table-{i}")).collect();
        let mut a = HashRing::new(32);
        let mut b = HashRing::new(32);
        for s in 0..4 {
            a.add_shard(s);
            b.add_shard(s);
        }
        let before: Vec<u32> = names.iter().map(|n| a.owner_of(n).unwrap()).collect();
        let again: Vec<u32> = names.iter().map(|n| b.owner_of(n).unwrap()).collect();
        assert_eq!(before, again, "placement must be deterministic");
        // Every shard owns something at 40 tables / 4 shards / 32 vnodes.
        let mut owners = before.clone();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(owners.len(), 4, "placement must spread: {before:?}");

        a.remove_shard(2);
        for (name, &old) in names.iter().zip(&before) {
            let new = a.owner_of(name).unwrap();
            if old != 2 {
                assert_eq!(new, old, "{name} moved although its shard lives");
            } else {
                assert_ne!(new, 2, "{name} still on the dead shard");
            }
        }
        assert_eq!(a.shards(), 3);
    }

    #[test]
    fn hello_returns_owed_loads_and_table_ready_routes() {
        let mut sup = Supervisor::new(2, 32, 5.0, 0.0, &tables(&["t-a", "t-b", "t-c"])).unwrap();
        assert!(sup.next_deadline_s().is_some());
        assert!(!sup.all_tables_ready());

        let mut all_orders = Vec::new();
        for shard in 0..2u32 {
            let orders = sup.on_hello(shard, Token(100 + shard as u64), 1.0).unwrap();
            for o in &orders {
                assert_eq!(o.shard, shard);
            }
            all_orders.extend(orders);
        }
        assert_eq!(all_orders.len(), 3, "every table ordered exactly once");
        assert!(sup.on_hello(0, Token(100), 1.0).is_err(), "duplicate Hello");
        assert!(sup.on_hello(9, Token(9), 1.0).is_err(), "unknown shard");

        for o in &all_orders {
            assert!(sup.route(&o.table).is_none(), "loading tables don't route");
            sup.on_table_ready(o.shard, &o.table, 2.0).unwrap();
            let (s, tok) = sup.route(&o.table).unwrap();
            assert_eq!(s, o.shard);
            assert_eq!(tok, Token(100 + o.shard as u64));
        }
        assert!(sup.all_tables_ready());
        assert_eq!(sup.next_deadline_s(), None, "nothing owed once ready");
        assert!(sup.on_table_ready(0, "ghost", 2.0).is_err());
    }

    #[test]
    fn dead_shard_replicates_to_the_successor_and_orphans_go_lost() {
        let names = ["t-a", "t-b", "t-c", "t-d", "t-e", "t-f"];
        let mut sup = Supervisor::new(2, 32, 5.0, 0.0, &tables(&names)).unwrap();
        for shard in 0..2u32 {
            let orders = sup.on_hello(shard, Token(100 + shard as u64), 1.0).unwrap();
            for o in orders {
                sup.on_table_ready(o.shard, &o.table, 1.5).unwrap();
            }
        }
        // Precompute the expected successor placement: the ring minus
        // shard 0 (everything must land on shard 1).
        let dead: Vec<String> = names
            .iter()
            .filter(|n| matches!(sup.table_state(n), Some(TableState::Ready(0))))
            .map(|n| n.to_string())
            .collect();
        assert!(!dead.is_empty(), "shard 0 must own something");

        let orders = sup.mark_dead(0, 2.0, Cause::Eof);
        assert_eq!(sup.shard_state(0), Some(ShardState::Dead));
        let ordered: Vec<String> = orders.iter().map(|o| o.table.clone()).collect();
        for name in &dead {
            assert!(ordered.contains(name), "{name} not re-ordered: {ordered:?}");
            assert_eq!(sup.table_state(name), Some(TableState::Loading(1)));
            assert!(sup.route(name).is_none(), "unrouteable while reloading");
        }
        for o in &orders {
            assert_eq!(o.shard, 1, "successor must be the surviving shard");
            assert_eq!(sup.tables[&o.table].seed, o.seed, "seed preserved");
            sup.on_table_ready(1, &o.table, 3.0).unwrap();
        }
        assert!(sup.all_tables_ready(), "all tables re-replicated");
        assert!(sup.mark_dead(0, 4.0, Cause::Eof).is_empty(), "idempotent");

        // Killing the last shard strands every table.
        let orders = sup.mark_dead(1, 5.0, Cause::Eof);
        assert!(orders.is_empty());
        assert!(sup.any_table_lost());
        for name in names {
            assert_eq!(sup.table_state(name), Some(TableState::Lost));
        }
    }

    #[test]
    fn transitions_are_logged_with_their_times_and_causes() {
        let mut sup = Supervisor::new(2, 8, 5.0, 0.0, &tables(&["t-a"])).unwrap();
        let owner = sup.ring.owner_of("t-a").unwrap();
        let other = 1 - owner;
        sup.on_hello(owner, Token(7), 1.0).unwrap();
        sup.on_table_ready(owner, "t-a", 1.5).unwrap();
        sup.mark_dead(owner, 2.0, Cause::Eof);
        sup.mark_dead(other, 6.0, Cause::Timeout);
        let (events, total) = sup.events().read();
        let got: Vec<(f64, Transition, Cause)> = events
            .into_iter()
            .map(|e| (e.at_s, e.to, e.cause))
            .collect();
        let table = |state| Transition::Table("t-a".to_string(), state);
        assert_eq!(
            got,
            [
                (
                    1.0,
                    Transition::Shard(owner, ShardState::Ready),
                    Cause::Hello
                ),
                (1.5, table(TableState::Ready(owner)), Cause::TableReady),
                (2.0, Transition::Shard(owner, ShardState::Dead), Cause::Eof),
                (2.0, table(TableState::Loading(other)), Cause::OwnerDied),
                (
                    6.0,
                    Transition::Shard(other, ShardState::Dead),
                    Cause::Timeout
                ),
                (6.0, table(TableState::Lost), Cause::NoLiveShard),
            ]
        );
        assert_eq!(total, 6);
        // A repeated death and a refused Hello change nothing, so log nothing.
        sup.mark_dead(owner, 7.0, Cause::Eof);
        assert!(sup.on_hello(other, Token(8), 7.0).is_err());
        assert_eq!(sup.events().read().1, 6);
    }

    #[test]
    fn the_event_log_keeps_the_newest_events() {
        let log = EventLog::default();
        let shared = log.clone();
        let n = EVENT_LOG_CAPACITY as u64 + 10;
        for k in 0..n {
            log.push(
                k as f64,
                Transition::Shard(0, ShardState::Ready),
                Cause::Hello,
            );
        }
        let (events, total) = shared.read();
        assert_eq!(total, n);
        assert_eq!(events.len(), EVENT_LOG_CAPACITY);
        assert_eq!(events[0].at_s, 10.0, "the oldest ten were overwritten");
        assert_eq!(events[EVENT_LOG_CAPACITY - 1].at_s, (n - 1) as f64);
    }

    #[test]
    fn timeouts_expire_silent_shards() {
        let mut sup = Supervisor::new(2, 8, 5.0, 0.0, &tables(&["t-a"])).unwrap();
        assert!(sup.expired(4.9).is_empty());
        assert_eq!(sup.expired(5.1), vec![0, 1], "both owe a Hello");
        // Shard 0 hello's; its deadline re-arms only if it owes loads.
        let orders = sup.on_hello(0, Token(50), 1.0).unwrap();
        let expired = sup.expired(5.1);
        assert!(!expired.contains(&0) || !orders.is_empty());
        assert!(expired.contains(&1), "silent shard 1 still expired");
        for o in orders {
            sup.on_table_ready(0, &o.table, 2.0).unwrap();
        }
        sup.mark_dead(1, 5.2, Cause::Timeout);
        assert!(sup.expired(1e9).is_empty(), "nothing owed, nothing expires");
    }

    #[test]
    fn degenerate_supervisors_are_rejected() {
        assert!(Supervisor::new(0, 8, 5.0, 0.0, &tables(&["t"])).is_err());
        assert!(Supervisor::new(2, 0, 5.0, 0.0, &tables(&["t"])).is_err());
        assert!(Supervisor::new(2, 8, 0.0, 0.0, &tables(&["t"])).is_err());
        assert!(Supervisor::new(2, 8, f64::NAN, 0.0, &tables(&["t"])).is_err());
        assert!(Supervisor::new(2, 8, 5.0, 0.0, &[]).is_err());
        let dup = vec![("t".to_string(), 1), ("t".to_string(), 2)];
        assert!(Supervisor::new(2, 8, 5.0, 0.0, &dup).is_err());
    }
}
