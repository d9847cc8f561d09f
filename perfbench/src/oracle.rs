//! The independent correctness oracle: expected groups computed from the
//! generated columns with a plain `BTreeMap`, and checkers for the two
//! forms results come back in (the CLI's text table and the served
//! blocks).

use crate::gen::{KeyValues, Sales};
use hashing_is_sorting::obs::json::{parse as parse_json, JsonValue};
use std::collections::BTreeMap;

/// What a correct result holds: its header and every group with its
/// aggregate values, keyed by the group's rendered key fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Column names, grouping columns first.
    pub header: Vec<String>,
    /// How many leading columns are grouping columns.
    pub key_cols: usize,
    /// Group key fields → aggregate values.
    pub groups: BTreeMap<Vec<String>, Vec<u64>>,
}

impl Expected {
    /// The same header with no groups: what a header-only input yields.
    pub fn empty_like(&self) -> Self {
        Self { header: self.header.clone(), key_cols: self.key_cols, groups: BTreeMap::new() }
    }
}

fn names(header: &[&str]) -> Vec<String> {
    header.iter().map(|s| s.to_string()).collect()
}

/// `GROUP BY k` with COUNT and SUM(v), typed: `(key, count, sum)` sorted
/// by key.
pub fn count_sum(data: &KeyValues) -> Vec<(u64, u64, u64)> {
    let mut groups: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (&k, &v) in data.keys.iter().zip(&data.vals) {
        let g = groups.entry(k).or_insert((0, 0));
        g.0 += 1;
        g.1 += v;
    }
    groups.into_iter().map(|(k, (c, s))| (k, c, s)).collect()
}

/// `hsa F --group-by k --count --sum v`.
pub fn highcard(data: &KeyValues) -> Expected {
    let groups =
        count_sum(data).into_iter().map(|(k, c, s)| (vec![k.to_string()], vec![c, s])).collect();
    Expected { header: names(&["k", "count", "sum(v)"]), key_cols: 1, groups }
}

/// `hsa F --group-by country,city --count --sum amount --max qty`.
pub fn sales(data: &Sales) -> Expected {
    let mut by_city: BTreeMap<u8, [u64; 3]> = BTreeMap::new();
    for ((&c, &a), &q) in data.city.iter().zip(&data.amount).zip(&data.qty) {
        let g = by_city.entry(c).or_insert([0, 0, 0]);
        g[0] += 1;
        g[1] += a;
        g[2] = g[2].max(q);
    }
    let groups = by_city
        .into_iter()
        .map(|(c, g)| (vec![Sales::country(c).to_string(), Sales::city_name(c)], g.to_vec()))
        .collect();
    Expected {
        header: names(&["country", "city", "count", "sum(amount)", "max(qty)"]),
        key_cols: 2,
        groups,
    }
}

/// Check an `hsa` stdout table against `expected`: the header, every
/// group exactly once, and every value.
pub fn check_table(text: &str, expected: &Expected) -> Result<(), String> {
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().ok_or("empty output")?.split_whitespace().collect();
    if header != expected.header {
        return Err(format!("header {header:?}, expected {:?}", expected.header));
    }
    let mut got: BTreeMap<Vec<String>, Vec<u64>> = BTreeMap::new();
    for (i, line) in lines.enumerate() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != header.len() {
            return Err(format!("row {}: {} fields in {line:?}", i + 1, fields.len()));
        }
        let (key, vals) = fields.split_at(expected.key_cols);
        let vals = vals
            .iter()
            .map(|v| v.parse::<u64>().map_err(|_| format!("row {}: bad value {v:?}", i + 1)))
            .collect::<Result<Vec<u64>, String>>()?;
        let key: Vec<String> = key.iter().map(|s| s.to_string()).collect();
        if let Some(old) = got.insert(key.clone(), vals) {
            return Err(format!("group {key:?} printed twice (first with {old:?})"));
        }
    }
    compare(&got, &expected.groups)
}

fn compare(
    got: &BTreeMap<Vec<String>, Vec<u64>>,
    want: &BTreeMap<Vec<String>, Vec<u64>>,
) -> Result<(), String> {
    for (key, vals) in want {
        match got.get(key) {
            None => return Err(format!("group {key:?} missing")),
            Some(v) if v != vals => {
                return Err(format!("group {key:?}: got {v:?}, expected {vals:?}"))
            }
            Some(_) => {}
        }
    }
    if got.len() != want.len() {
        let extra = got.keys().find(|k| !want.contains_key(*k));
        return Err(format!("{} groups, expected {} (extra {extra:?})", got.len(), want.len()));
    }
    Ok(())
}

/// Rows of one served `{"block":{"keys":[..],"cols":[[..],..]}}` line.
pub fn parse_block(line: &str) -> Result<Vec<(u64, Vec<u64>)>, String> {
    let value = parse_json(line).map_err(|e| format!("bad block JSON: {e}"))?;
    let block = value.get("block").ok_or("not a block line")?;
    let u64s = |v: &JsonValue| -> Option<Vec<u64>> {
        v.as_array()?.iter().map(JsonValue::as_u64).collect()
    };
    let keys = block.get("keys").and_then(u64s).ok_or("block without u64 keys")?;
    let cols = block
        .get("cols")
        .and_then(JsonValue::as_array)
        .and_then(|cols| cols.iter().map(u64s).collect::<Option<Vec<_>>>())
        .ok_or("block without u64 cols")?;
    if cols.iter().any(|c| c.len() != keys.len()) {
        return Err("block columns differ in length from its keys".into());
    }
    Ok(keys.iter().enumerate().map(|(r, &k)| (k, cols.iter().map(|c| c[r]).collect())).collect())
}

/// Check served COUNT+SUM result rows against [`count_sum`]'s answer.
pub fn check_count_sum(
    rows: &[(u64, Vec<u64>)],
    expected: &[(u64, u64, u64)],
) -> Result<(), String> {
    let mut rows: Vec<&(u64, Vec<u64>)> = rows.iter().collect();
    rows.sort_by_key(|(k, _)| *k);
    if rows.len() != expected.len() {
        return Err(format!("{} groups, expected {}", rows.len(), expected.len()));
    }
    for ((k, vals), &(ek, ec, es)) in rows.iter().zip(expected) {
        if *k != ek || vals.as_slice() != [ec, es] {
            return Err(format!("group {k}: got {vals:?}, expected key {ek} with [{ec}, {es}]"));
        }
    }
    Ok(())
}
