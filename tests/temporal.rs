//! Experiment E20: the Cypher 10 temporal types (paper Section 6,
//! "Temporal types") exercised through full queries: construction,
//! component access, comparison, arithmetic and ordering.

use cypher::{PropertyGraph, Value};
use cypher_tck::diff::{error, graph, rows};

fn event_graph() -> PropertyGraph {
    graph(
        &["CREATE (:Event {name: 'kickoff',  on: date('2018-06-10')}),
                (:Event {name: 'review',   on: date('2018-06-12')}),
                (:Event {name: 'retro',    on: date('2018-07-01')}),
                (:Event {name: 'undated'})"],
    )
}

#[test]
fn dates_compare_in_where() {
    let g = event_graph();
    let t = rows(
        &g,
        "MATCH (e:Event) WHERE e.on < date('2018-06-15')
         RETURN e.name AS n ORDER BY n",
    );
    assert_eq!(t.len(), 2);
    assert_eq!(t.cell(0, "n"), Some(&Value::str("kickoff")));
    assert_eq!(t.cell(1, "n"), Some(&Value::str("review")));
}

#[test]
fn date_ordering_and_null_last() {
    let g = event_graph();
    let t = rows(&g, "MATCH (e:Event) RETURN e.name AS n ORDER BY e.on");
    // undated sorts last (null greatest in ascending order).
    assert_eq!(t.cell(3, "n"), Some(&Value::str("undated")));
    assert_eq!(t.cell(0, "n"), Some(&Value::str("kickoff")));
}

#[test]
fn duration_arithmetic_in_queries() {
    let g = event_graph();
    let t = rows(
        &g,
        "MATCH (e:Event {name: 'kickoff'})
         RETURN e.on + duration('P1M') AS moved,
                (e.on + duration('P10D')).month AS m",
    );
    assert_eq!(t.cell(0, "moved").unwrap().to_string(), "2018-07-10");
    assert_eq!(t.cell(0, "m"), Some(&Value::int(6)));
}

#[test]
fn duration_between_dates() {
    let g = event_graph();
    let t = rows(
        &g,
        "MATCH (a:Event {name: 'kickoff'}), (b:Event {name: 'retro'})
         RETURN durationBetween(a.on, b.on) AS gap,
                durationBetween(a.on, b.on).days AS days",
    );
    assert_eq!(t.cell(0, "gap").unwrap().to_string(), "P21D");
    assert_eq!(t.cell(0, "days"), Some(&Value::int(21)));
}

#[test]
fn datetime_zones_normalize_for_comparison() {
    let g = PropertyGraph::new();
    let t = rows(&g, "RETURN datetime('2018-06-10T12:00:00+02:00') < datetime('2018-06-10T11:00:00Z') AS earlier");
    assert_eq!(t.cell(0, "earlier"), Some(&Value::Bool(true)));
}

#[test]
fn temporal_components() {
    let g = PropertyGraph::new();
    let t = rows(
        &g,
        "RETURN date('2018-06-10').year AS y,
                date('2018-06-10').weekday AS wd,
                localtime('14:30:15.5').minute AS min,
                localtime('14:30:15.5').nanosecond AS ns,
                localdatetime('2018-06-10T14:30:15').hour AS h,
                duration('P1Y2M3DT4H').months AS months",
    );
    assert_eq!(t.cell(0, "y"), Some(&Value::int(2018)));
    assert_eq!(t.cell(0, "wd"), Some(&Value::int(7))); // Sunday
    assert_eq!(t.cell(0, "min"), Some(&Value::int(30)));
    assert_eq!(t.cell(0, "ns"), Some(&Value::int(500_000_000)));
    assert_eq!(t.cell(0, "h"), Some(&Value::int(14)));
    assert_eq!(t.cell(0, "months"), Some(&Value::int(14)));
}

#[test]
fn temporal_values_group_and_dedup() {
    let g = event_graph();
    // Two events share June; DISTINCT on month gives 2 groups.
    let t = rows(
        &g,
        "MATCH (e:Event) WHERE e.on IS NOT NULL
         RETURN e.on.month AS m, count(*) AS c ORDER BY m",
    );
    assert_eq!(t.len(), 2);
    assert_eq!(t.cell(0, "c"), Some(&Value::int(2)));
    assert_eq!(t.cell(1, "c"), Some(&Value::int(1)));
}

#[test]
fn invalid_temporal_literals_error() {
    let g = PropertyGraph::new();
    error(&g, "RETURN date('2018-02-30') AS d");
    error(&g, "RETURN duration('xyz') AS d");
    error(&g, "RETURN localtime('25:00') AS t");
}

#[test]
fn engines_agree_on_temporal_queries() {
    let g = event_graph();
    for q in [
        "MATCH (e:Event) WHERE e.on >= date('2018-06-12') RETURN e.name",
        "MATCH (e:Event) RETURN min(e.on) AS first, max(e.on) AS last",
        "MATCH (e:Event) WHERE e.on IS NOT NULL RETURN e.on + duration('P1D') AS next ORDER BY next",
    ] {
        rows(&g, q);
    }
}
