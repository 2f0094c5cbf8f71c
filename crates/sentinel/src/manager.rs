//! The rule engine: store + transactions + detector + ECA rules.
//!
//! [`RuleEngine`] owns the centralized detector and the active-DBMS
//! substrate. Mutating the store or the transaction manager through the
//! engine's methods stamps the generated events with the engine clock,
//! feeds them to the detector, and fires matching rules (immediate
//! coupling) or queues them until commit (deferred coupling).
//!
//! For the distributed engine, detections are produced by
//! `decs_distrib::Engine`; [`RuleEngine::apply_detection`] runs the same
//! rule set over those.

use crate::error::{Result, SentinelError};
use crate::rule::{Condition, Coupling, Rule, RuleOccurrence};
use crate::store::ObjectStore;
use crate::txn::{TxnId, TxnManager};
use decs_snoop::{CentralDetector, Context, EventExpr, Occurrence, Value};

/// A fired-rule record in the action log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredRule {
    /// The rule name.
    pub rule: String,
    /// Lines the action produced.
    pub output: Vec<String>,
}

/// The centralized active-DBMS engine.
pub struct RuleEngine {
    store: ObjectStore,
    txns: TxnManager,
    detector: CentralDetector,
    rules: Vec<Rule>,
    /// Deferred (rule index, occurrence) pairs per active transaction.
    deferred: Vec<(usize, RuleOccurrence)>,
    log: Vec<FiredRule>,
    clock: u64,
}

impl Default for RuleEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RuleEngine {
    /// An empty engine with the standard transaction events registered.
    /// Rules compile into the shared-plan backend, so rule sets with
    /// overlapping event expressions share operator state.
    pub fn new() -> Self {
        let mut detector = CentralDetector::new();
        for n in ["txn_begin", "txn_commit", "txn_abort"] {
            detector.register(n).expect("fresh catalog");
        }
        RuleEngine {
            store: ObjectStore::new(),
            txns: TxnManager::new(),
            detector,
            rules: Vec::new(),
            deferred: Vec::new(),
            log: Vec::new(),
            clock: 0,
        }
    }

    /// Access the store (read-only; mutate through the engine).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The fired-rule log.
    pub fn log(&self) -> &[FiredRule] {
        &self.log
    }

    /// The current engine clock tick.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Create a table and register its three data events.
    pub fn create_table(&mut self, name: &str, columns: &[&str]) -> Result<()> {
        self.store.create_table(name, columns)?;
        for suffix in ["insert", "update", "delete"] {
            self.detector.register(&format!("{name}_{suffix}"))?;
        }
        Ok(())
    }

    /// Register an explicit (application-defined) primitive event.
    pub fn register_event(&mut self, name: &str) -> Result<()> {
        self.detector.register(name)?;
        Ok(())
    }

    /// Define a named composite event from an expression.
    pub fn define_event(&mut self, name: &str, expr: &EventExpr, ctx: Context) -> Result<()> {
        self.detector.define(name, expr, ctx)?;
        Ok(())
    }

    /// Define a named composite event from DSL text.
    pub fn define_event_dsl(&mut self, name: &str, dsl: &str, ctx: Context) -> Result<()> {
        let expr = crate::dsl::parse_expr(dsl)?;
        self.define_event(name, &expr, ctx)
    }

    /// Add an ECA rule.
    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Remove a rule by name. Errors if no rule has that name.
    pub fn remove_rule(&mut self, name: &str) -> Result<()> {
        let before = self.rules.len();
        self.rules.retain(|r| r.name != name);
        if self.rules.len() == before {
            return Err(SentinelError::NoSuchRule(name.to_owned()));
        }
        // Drop any deferred firings of the removed rule: indices shift, so
        // rebuild the deferred queue by rule name.
        self.deferred.retain(|(idx, _)| *idx < self.rules.len());
        Ok(())
    }

    /// Names of the installed rules, in definition order.
    pub fn rule_names(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.name.as_str()).collect()
    }

    /// Raise an explicit event with parameters at the next clock tick.
    pub fn raise(&mut self, event: &str, values: Vec<Value>) -> Result<()> {
        self.clock += 1;
        let tick = self.clock;
        self.feed_and_dispatch(event, tick, values)
    }

    /// Feed one primitive occurrence: run rules on the primitive event
    /// itself, then on every composite detection it produces.
    fn feed_and_dispatch(&mut self, event: &str, tick: u64, values: Vec<Value>) -> Result<()> {
        let ty = self.detector.catalog().lookup(event)?;
        let primitive = Occurrence::primitive(ty, decs_snoop::CentralTime(tick), values.clone());
        let detections = self.detector.feed(event, tick, values)?;
        self.dispatch_one(event.to_owned(), primitive);
        self.dispatch(detections);
        Ok(())
    }

    fn dispatch_one(&mut self, name: String, occ: Occurrence<decs_snoop::CentralTime>) {
        let r_occ = RuleOccurrence::Central(occ);
        for idx in self.matching_rules(&name) {
            if self.rules[idx].condition.eval(r_occ.params()) {
                match self.rules[idx].coupling {
                    Coupling::Immediate => self.run_action(idx, &r_occ),
                    Coupling::Deferred => self.deferred.push((idx, r_occ.clone())),
                }
            }
        }
    }

    /// Begin a transaction (emits `txn_begin`).
    pub fn begin(&mut self) -> Result<TxnId> {
        let id = self.txns.begin();
        self.pump_txn_events()?;
        Ok(id)
    }

    /// Commit a transaction (emits `txn_commit`, then runs deferred
    /// actions).
    pub fn commit(&mut self, id: TxnId) -> Result<()> {
        self.txns.commit(id)?;
        self.pump_txn_events()?;
        let deferred = std::mem::take(&mut self.deferred);
        for (rule_idx, occ) in deferred {
            self.run_action(rule_idx, &occ);
        }
        Ok(())
    }

    /// Abort a transaction (emits `txn_abort`, discards deferred actions).
    pub fn abort(&mut self, id: TxnId) -> Result<()> {
        self.txns.abort(id)?;
        self.deferred.clear();
        self.pump_txn_events()?;
        Ok(())
    }

    /// Insert into a table (emits the data event, runs rules).
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<crate::store::RowId> {
        let id = self.store.insert(table, values)?;
        self.pump_store_events()?;
        Ok(id)
    }

    /// Update a row.
    pub fn update(
        &mut self,
        table: &str,
        row: crate::store::RowId,
        values: Vec<Value>,
    ) -> Result<()> {
        self.store.update(table, row, values)?;
        self.pump_store_events()
    }

    /// Delete a row.
    pub fn delete(&mut self, table: &str, row: crate::store::RowId) -> Result<()> {
        self.store.delete(table, row)?;
        self.pump_store_events()
    }

    /// Advance the engine clock without an event (drives temporal
    /// operators).
    pub fn tick(&mut self, to: u64) -> Result<()> {
        self.clock = self.clock.max(to);
        let detections = self
            .detector
            .advance_to(self.clock)
            .map_err(SentinelError::from)?;
        self.dispatch(detections);
        Ok(())
    }

    /// Run the rule set over a detection produced elsewhere (e.g. by the
    /// distributed engine). Deferred rules run immediately here — there is
    /// no surrounding transaction.
    pub fn apply_detection(&mut self, event_name: &str, occ: RuleOccurrence) {
        let matching: Vec<usize> = self.matching_rules(event_name);
        for idx in matching {
            if self.rules[idx].condition.eval(occ.params()) {
                self.run_action(idx, &occ);
            }
        }
    }

    fn matching_rules(&self, event_name: &str) -> Vec<usize> {
        let mut m: Vec<usize> = self
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.event == event_name)
            .map(|(i, _)| i)
            .collect();
        // Higher priority first; ties by definition order.
        m.sort_by_key(|&i| (-self.rules[i].priority, i));
        m
    }

    fn pump_store_events(&mut self) -> Result<()> {
        for ev in self.store.drain_events() {
            self.clock += 1;
            let tick = self.clock;
            self.feed_and_dispatch(&ev.event_name(), tick, ev.values)?;
        }
        Ok(())
    }

    fn pump_txn_events(&mut self) -> Result<()> {
        for ev in self.txns.drain_events() {
            self.clock += 1;
            let tick = self.clock;
            self.feed_and_dispatch(ev.op.event_name(), tick, vec![Value::Int(ev.txn.0 as i64)])?;
        }
        Ok(())
    }

    fn dispatch(&mut self, detections: Vec<Occurrence<decs_snoop::CentralTime>>) {
        for occ in detections {
            let name = self.detector.name_of(&occ).to_owned();
            self.dispatch_one(name, occ);
        }
    }

    fn run_action(&mut self, idx: usize, occ: &RuleOccurrence) {
        let rule = &mut self.rules[idx];
        let output = match &mut rule.action {
            crate::rule::Action::Log(msg) => vec![msg.clone()],
            crate::rule::Action::Custom(f) => f(&rule.name, occ),
        };
        self.log.push(FiredRule {
            rule: rule.name.clone(),
            output,
        });
    }

    /// Convenience: add a log-only rule triggered by `event` when
    /// `condition` holds.
    pub fn on(&mut self, name: &str, event: &str, condition: Condition, message: &str) {
        self.add_rule(Rule::new(
            name,
            event,
            condition,
            crate::rule::Action::Log(message.to_owned()),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Action;
    use decs_snoop::EventExpr as E;

    #[test]
    fn data_events_trigger_rules() {
        let mut e = RuleEngine::new();
        e.create_table("stock", &["symbol", "price"]).unwrap();
        e.on(
            "r1",
            "stock_insert",
            Condition::Threshold {
                index: 1,
                threshold: 100.0,
                above: true,
            },
            "expensive stock",
        );
        e.insert("stock", vec!["IBM".into(), 101.0.into()]).unwrap();
        e.insert("stock", vec!["T".into(), 20.0.into()]).unwrap();
        assert_eq!(e.log().len(), 1);
        assert_eq!(e.log()[0].rule, "r1");
    }

    #[test]
    fn composite_event_rule() {
        let mut e = RuleEngine::new();
        e.create_table("stock", &["symbol", "price"]).unwrap();
        e.define_event(
            "spike",
            &E::seq(E::prim("stock_update"), E::prim("stock_update")),
            Context::Chronicle,
        )
        .unwrap();
        e.on("r", "spike", Condition::Always, "two updates");
        let row = e.insert("stock", vec!["IBM".into(), 100.0.into()]).unwrap();
        e.update("stock", row, vec!["IBM".into(), 101.0.into()])
            .unwrap();
        e.update("stock", row, vec!["IBM".into(), 102.0.into()])
            .unwrap();
        assert_eq!(e.log().len(), 1);
    }

    #[test]
    fn deferred_coupling_waits_for_commit() {
        let mut e = RuleEngine::new();
        e.register_event("ping").unwrap();
        e.add_rule(
            Rule::new(
                "d",
                "ping",
                Condition::Always,
                Action::Log("deferred".into()),
            )
            .coupling(Coupling::Deferred),
        );
        let t = e.begin().unwrap();
        e.raise("ping", vec![]).unwrap();
        assert!(e.log().is_empty(), "deferred action ran early");
        e.commit(t).unwrap();
        assert_eq!(e.log().len(), 1);
    }

    #[test]
    fn abort_discards_deferred() {
        let mut e = RuleEngine::new();
        e.register_event("ping").unwrap();
        e.add_rule(
            Rule::new("d", "ping", Condition::Always, Action::Log("x".into()))
                .coupling(Coupling::Deferred),
        );
        let t = e.begin().unwrap();
        e.raise("ping", vec![]).unwrap();
        e.abort(t).unwrap();
        assert!(e.log().is_empty());
    }

    #[test]
    fn priorities_order_firing() {
        let mut e = RuleEngine::new();
        e.register_event("ping").unwrap();
        e.on("low", "ping", Condition::Always, "low");
        e.add_rule(
            Rule::new("high", "ping", Condition::Always, Action::Log("hi".into())).priority(10),
        );
        e.raise("ping", vec![]).unwrap();
        assert_eq!(e.log()[0].rule, "high");
        assert_eq!(e.log()[1].rule, "low");
    }

    #[test]
    fn txn_commit_event_is_detectable() {
        let mut e = RuleEngine::new();
        e.on("c", "txn_commit", Condition::Always, "committed");
        let t = e.begin().unwrap();
        e.commit(t).unwrap();
        assert_eq!(e.log().len(), 1);
    }

    #[test]
    fn temporal_rule_via_tick() {
        let mut e = RuleEngine::new();
        e.register_event("start").unwrap();
        e.define_event(
            "timeout",
            &E::plus(E::prim("start"), 10),
            Context::Chronicle,
        )
        .unwrap();
        e.on("t", "timeout", Condition::Always, "fired");
        e.raise("start", vec![]).unwrap(); // tick 1
        e.tick(5).unwrap();
        assert!(e.log().is_empty());
        e.tick(11).unwrap();
        assert_eq!(e.log().len(), 1);
    }

    #[test]
    fn custom_action_sees_params() {
        let mut e = RuleEngine::new();
        e.register_event("ping").unwrap();
        e.add_rule(Rule::new(
            "c",
            "ping",
            Condition::Always,
            Action::Custom(Box::new(|rule, occ| {
                vec![format!("{rule}: {} tuples", occ.params().len())]
            })),
        ));
        e.raise("ping", vec![1i64.into()]).unwrap();
        assert_eq!(e.log()[0].output, vec!["c: 1 tuples"]);
    }
}

#[cfg(test)]
mod rule_mgmt_tests {
    use super::*;
    use crate::rule::Action;

    #[test]
    fn remove_rule_by_name() {
        let mut e = RuleEngine::new();
        e.register_event("ping").unwrap();
        e.on("a", "ping", Condition::Always, "a");
        e.on("b", "ping", Condition::Always, "b");
        assert_eq!(e.rule_names(), vec!["a", "b"]);
        e.remove_rule("a").unwrap();
        assert_eq!(e.rule_names(), vec!["b"]);
        assert!(matches!(
            e.remove_rule("a"),
            Err(SentinelError::NoSuchRule(_))
        ));
        e.raise("ping", vec![]).unwrap();
        assert_eq!(e.log().len(), 1);
        assert_eq!(e.log()[0].rule, "b");
    }

    #[test]
    fn removed_rule_never_fires_deferred() {
        let mut e = RuleEngine::new();
        e.register_event("ping").unwrap();
        e.add_rule(
            Rule::new("d", "ping", Condition::Always, Action::Log("x".into()))
                .coupling(Coupling::Deferred),
        );
        let t = e.begin().unwrap();
        e.raise("ping", vec![]).unwrap();
        e.remove_rule("d").unwrap();
        e.commit(t).unwrap();
        assert!(e.log().is_empty());
    }
}
