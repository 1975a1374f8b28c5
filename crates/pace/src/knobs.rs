//! The single source of truth for the search-engine knob surface.
//!
//! [`SearchOptions`] knobs used to be re-described by hand in four
//! places — the options struct itself, the exploration crate's
//! `Table1Options`, the CLI flag parser and the serve wire protocol —
//! so adding a knob meant four edits that could silently drift.
//! [`SEARCH_KNOBS`] is the one table they all derive from now: each
//! entry carries the knob's kebab-case name, its [`KnobKind`] (which
//! fixes both the CLI flag spellings and the wire token), and the
//! getter/setter tying it to [`SearchOptions`]. The CLI builds its
//! flag list (including the did-you-mean candidates) from the table,
//! and the serve protocol derives both `parse` and `to_line` from it,
//! so the next knob is added here and nowhere else.
//!
//! [`KnobOverrides`] is the wire-facing companion: a partial,
//! order-preserving set of knob settings that a request carries and a
//! server applies over its configured defaults
//! ([`KnobOverrides::apply_to`]).

use crate::SearchOptions;

/// Kind — and therefore CLI/wire arity — of one search knob.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KnobKind {
    /// Takes a numeric value: `--name <n>` on the CLI, `name=<n>` on
    /// the wire.
    Count,
    /// Numeric with `0` meaning "unlimited" (`None`), as the `limit`
    /// knob has always read it on both surfaces.
    OptionalCount,
    /// Default-off switch set by its bare positive form (`--bound` /
    /// `bound`); there is no negative spelling.
    EnabledBy,
    /// Default-on switch cleared by its bare `no-` form (`--no-warm`
    /// / `no-warm`); there is no positive spelling.
    DisabledBy,
}

/// A knob's concrete setting, as read from or written to
/// [`SearchOptions`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KnobSetting {
    /// Value of a [`KnobKind::Count`] knob.
    Count(usize),
    /// Value of a [`KnobKind::OptionalCount`] knob (`None` =
    /// unlimited).
    Limit(Option<usize>),
    /// State of a switch knob.
    Switch(bool),
}

/// One search-engine knob: its name, kind and [`SearchOptions`]
/// accessors. See [`SEARCH_KNOBS`].
pub struct SearchKnob {
    /// Kebab-case base name (`"store-cap"`, `"deadline-ms"`, …) — the
    /// CLI flag stem and the [`KnobOverrides`] key.
    pub name: &'static str,
    /// The serve protocol's token for this knob: the name itself for
    /// value knobs and [`KnobKind::EnabledBy`] switches, the `no-`
    /// spelling for [`KnobKind::DisabledBy`] (the wire carries only
    /// the non-default direction).
    pub wire: &'static str,
    /// Kind and surface arity.
    pub kind: KnobKind,
    set: fn(&mut SearchOptions, KnobSetting),
    get: fn(&SearchOptions) -> KnobSetting,
}

impl SearchKnob {
    /// Writes `setting` into `options`. Settings of a mismatched
    /// variant are ignored ([`SearchKnob::setting_from_count`] and
    /// [`SearchKnob::read`] only produce matching ones).
    pub fn apply(&self, options: &mut SearchOptions, setting: KnobSetting) {
        (self.set)(options, setting);
    }

    /// Reads the knob's current setting out of `options`.
    pub fn read(&self, options: &SearchOptions) -> KnobSetting {
        (self.get)(options)
    }

    /// The knob's setting under [`SearchOptions::default`].
    pub fn default_setting(&self) -> KnobSetting {
        (self.get)(&SearchOptions::default())
    }

    /// A setting from a raw numeric token, honouring the
    /// `0 = unlimited` rule of [`KnobKind::OptionalCount`].
    pub fn setting_from_count(&self, n: usize) -> KnobSetting {
        match self.kind {
            KnobKind::OptionalCount => KnobSetting::Limit((n != 0).then_some(n)),
            _ => KnobSetting::Count(n),
        }
    }

    /// Whether the knob takes a numeric value (versus a bare switch).
    pub fn takes_value(&self) -> bool {
        matches!(self.kind, KnobKind::Count | KnobKind::OptionalCount)
    }
}

fn set_threads(o: &mut SearchOptions, s: KnobSetting) {
    if let KnobSetting::Count(n) = s {
        o.threads = n;
    }
}

fn set_limit(o: &mut SearchOptions, s: KnobSetting) {
    match s {
        KnobSetting::Limit(v) => o.limit = v,
        KnobSetting::Count(n) => o.limit = (n != 0).then_some(n),
        KnobSetting::Switch(_) => {}
    }
}

fn set_bound(o: &mut SearchOptions, s: KnobSetting) {
    if let KnobSetting::Switch(on) = s {
        o.bound = on;
    }
}

fn set_store_cap(o: &mut SearchOptions, s: KnobSetting) {
    if let KnobSetting::Count(n) = s {
        o.store_cap = n;
    }
}

fn set_warm(o: &mut SearchOptions, s: KnobSetting) {
    if let KnobSetting::Switch(on) = s {
        o.warm = on;
    }
}

fn set_deadline_ms(o: &mut SearchOptions, s: KnobSetting) {
    match s {
        KnobSetting::Limit(v) => o.deadline_ms = v.map(|n| n as u64),
        KnobSetting::Count(n) => o.deadline_ms = (n != 0).then_some(n as u64),
        KnobSetting::Switch(_) => {}
    }
}

/// Every engine knob, in the canonical surface order: the order CLI
/// usage lists them and the serve protocol's `to_line` emits them.
pub const SEARCH_KNOBS: &[SearchKnob] = &[
    SearchKnob {
        name: "threads",
        wire: "threads",
        kind: KnobKind::Count,
        set: set_threads,
        get: |o| KnobSetting::Count(o.threads),
    },
    SearchKnob {
        name: "limit",
        wire: "limit",
        kind: KnobKind::OptionalCount,
        set: set_limit,
        get: |o| KnobSetting::Limit(o.limit),
    },
    SearchKnob {
        name: "bound",
        wire: "bound",
        kind: KnobKind::EnabledBy,
        set: set_bound,
        get: |o| KnobSetting::Switch(o.bound),
    },
    SearchKnob {
        name: "store-cap",
        wire: "store-cap",
        kind: KnobKind::Count,
        set: set_store_cap,
        get: |o| KnobSetting::Count(o.store_cap),
    },
    SearchKnob {
        name: "warm",
        wire: "no-warm",
        kind: KnobKind::DisabledBy,
        set: set_warm,
        get: |o| KnobSetting::Switch(o.warm),
    },
    SearchKnob {
        name: "deadline-ms",
        wire: "deadline-ms",
        kind: KnobKind::OptionalCount,
        set: set_deadline_ms,
        get: |o| KnobSetting::Limit(o.deadline_ms.map(|n| n as usize)),
    },
];

/// Looks a knob up by its kebab-case name.
pub fn search_knob(name: &str) -> Option<&'static SearchKnob> {
    SEARCH_KNOBS.iter().find(|k| k.name == name)
}

/// Looks a knob up by its wire token ([`SearchKnob::wire`]) — the
/// serve protocol's parse-side inverse of the table.
pub fn search_knob_by_wire(token: &str) -> Option<&'static SearchKnob> {
    SEARCH_KNOBS.iter().find(|k| k.wire == token)
}

/// Partial overrides of [`SearchOptions`]: at most one setting per
/// knob of [`SEARCH_KNOBS`], iterated in table order. This is what a
/// serve request carries — only the knobs the client actually said —
/// and what the server folds over its configured defaults.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KnobOverrides {
    // One slot per SEARCH_KNOBS entry, so iteration order is table
    // order whatever order the settings arrived in.
    slots: Vec<Option<KnobSetting>>,
}

impl Default for KnobOverrides {
    fn default() -> Self {
        KnobOverrides {
            slots: vec![None; SEARCH_KNOBS.len()],
        }
    }
}

impl KnobOverrides {
    /// No overrides at all.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no knob is overridden.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Sets knob `name`; `false` (and no change) when `name` is not in
    /// [`SEARCH_KNOBS`].
    pub fn set(&mut self, name: &str, setting: KnobSetting) -> bool {
        match SEARCH_KNOBS.iter().position(|k| k.name == name) {
            Some(i) => {
                self.slots[i] = Some(setting);
                true
            }
            None => false,
        }
    }

    /// The override for knob `name`, if any.
    pub fn get(&self, name: &str) -> Option<KnobSetting> {
        let i = SEARCH_KNOBS.iter().position(|k| k.name == name)?;
        self.slots[i]
    }

    /// Set knobs in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static SearchKnob, KnobSetting)> + '_ {
        SEARCH_KNOBS
            .iter()
            .zip(&self.slots)
            .filter_map(|(k, s)| s.map(|s| (k, s)))
    }

    /// `base` with every override applied, in table order.
    pub fn apply_to(&self, base: &SearchOptions) -> SearchOptions {
        let mut options = base.clone();
        for (knob, setting) in self.iter() {
            knob.apply(&mut options, setting);
        }
        options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A setting guaranteed to differ from the knob's default.
    fn flipped(knob: &SearchKnob) -> KnobSetting {
        match knob.default_setting() {
            KnobSetting::Count(n) => KnobSetting::Count(n + 3),
            KnobSetting::Limit(None) => KnobSetting::Limit(Some(7)),
            KnobSetting::Limit(Some(n)) => KnobSetting::Limit(Some(n + 7)),
            KnobSetting::Switch(b) => KnobSetting::Switch(!b),
        }
    }

    #[test]
    fn every_knob_round_trips_set_then_get() {
        for knob in SEARCH_KNOBS {
            let mut options = SearchOptions::default();
            let want = flipped(knob);
            knob.apply(&mut options, want);
            assert_eq!(knob.read(&options), want, "knob {}", knob.name);
            // And no other knob moved.
            for other in SEARCH_KNOBS {
                if other.name != knob.name {
                    assert_eq!(
                        other.read(&options),
                        other.default_setting(),
                        "setting {} disturbed {}",
                        knob.name,
                        other.name
                    );
                }
            }
        }
    }

    #[test]
    fn table_matches_the_options_struct_defaults() {
        let d = SearchOptions::default();
        assert_eq!(
            search_knob("threads").unwrap().read(&d),
            KnobSetting::Count(0)
        );
        assert_eq!(
            search_knob("limit").unwrap().read(&d),
            KnobSetting::Limit(None)
        );
        assert_eq!(
            search_knob("bound").unwrap().read(&d),
            KnobSetting::Switch(false)
        );
        assert_eq!(
            search_knob("store-cap").unwrap().read(&d),
            KnobSetting::Count(8)
        );
        assert_eq!(
            search_knob("warm").unwrap().read(&d),
            KnobSetting::Switch(true)
        );
        assert_eq!(
            search_knob("deadline-ms").unwrap().read(&d),
            KnobSetting::Limit(None)
        );
        assert!(search_knob("no-such-knob").is_none());
        let names: Vec<&str> = SEARCH_KNOBS.iter().map(|k| k.name).collect();
        assert_eq!(
            names,
            [
                "threads",
                "limit",
                "bound",
                "store-cap",
                "warm",
                "deadline-ms"
            ]
        );
    }

    #[test]
    fn wire_tokens_follow_the_kind_rule() {
        for knob in SEARCH_KNOBS {
            let want = match knob.kind {
                KnobKind::DisabledBy => format!("no-{}", knob.name),
                _ => knob.name.to_owned(),
            };
            assert_eq!(knob.wire, want, "knob {}", knob.name);
            assert_eq!(
                search_knob_by_wire(knob.wire).unwrap().name,
                knob.name,
                "wire lookup inverts the table"
            );
        }
        assert!(
            search_knob_by_wire("warm").is_none(),
            "only the wire spelling resolves"
        );
    }

    #[test]
    fn optional_count_reads_zero_as_unlimited() {
        let limit = search_knob("limit").unwrap();
        assert_eq!(limit.setting_from_count(0), KnobSetting::Limit(None));
        assert_eq!(limit.setting_from_count(9), KnobSetting::Limit(Some(9)));
        assert!(limit.takes_value());
        let threads = search_knob("threads").unwrap();
        assert_eq!(threads.setting_from_count(0), KnobSetting::Count(0));
        assert!(!search_knob("warm").unwrap().takes_value());
    }

    #[test]
    fn overrides_apply_in_one_pass_and_keep_table_order() {
        let mut over = KnobOverrides::new();
        assert!(over.is_empty());
        // Insert out of table order on purpose.
        assert!(over.set("warm", KnobSetting::Switch(false)));
        assert!(over.set("threads", KnobSetting::Count(4)));
        assert!(over.set("limit", KnobSetting::Limit(None)));
        assert!(!over.set("nonsense", KnobSetting::Count(1)));
        assert!(!over.is_empty());
        let names: Vec<&str> = over.iter().map(|(k, _)| k.name).collect();
        assert_eq!(names, ["threads", "limit", "warm"], "table order");
        assert_eq!(over.get("threads"), Some(KnobSetting::Count(4)));
        assert_eq!(over.get("bound"), None);

        let base = SearchOptions {
            limit: Some(200_000),
            ..SearchOptions::default()
        };
        let merged = over.apply_to(&base);
        assert_eq!(merged.threads, 4);
        assert_eq!(merged.limit, None, "limit override clears the default");
        assert!(!merged.warm);
        assert!(!merged.bound, "untouched knobs keep the base value");
    }
}
