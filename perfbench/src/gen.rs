//! Seeded input generation. The same seed gives byte-identical inputs;
//! every data set draws from its own stream derived from the seed.

use hsa_datagen::{generate, Distribution, SplitMix64, Xoshiro256StarStar, Zipf};
use std::fmt::Write as _;

/// Rows in every batch (CSV) workload's input file.
pub const CLI_ROWS: usize = 2_000_000;
/// Key domain of the high-cardinality file (≈490k groups from 2M rows).
pub const HIGHCARD_KEYS: u64 = 500_000;
/// Values are uniform in `[0, VALUE_RANGE)`.
pub const VALUE_RANGE: u64 = 1_000_000;

/// Countries of the low-cardinality file; each owns [`CITIES_PER_COUNTRY`]
/// cities, so the (country, city) pair has 64 values.
pub const COUNTRIES: [&str; 8] = ["de", "fr", "us", "jp", "br", "in", "cn", "za"];
/// Cities per country.
pub const CITIES_PER_COUNTRY: usize = 8;
/// Zipf exponent of the city draw.
pub const CITY_ZIPF_EXPONENT: f64 = 1.0;

/// A seed of its own for data set `stream` of run seed `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    mix.next_u64()
}

/// A `(key, value)` table with uniform keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyValues {
    /// Grouping keys.
    pub keys: Vec<u64>,
    /// Aggregated values.
    pub vals: Vec<u64>,
}

impl KeyValues {
    /// `rows` rows with keys uniform in `[0, key_domain)`.
    pub fn generate(seed: u64, rows: usize, key_domain: u64) -> Self {
        let keys = generate(Distribution::Uniform, rows, key_domain, seed);
        let mut rng = Xoshiro256StarStar::new(seed ^ 0x7661_6c75_6573);
        let vals = (0..rows).map(|_| rng.below(VALUE_RANGE)).collect();
        Self { keys, vals }
    }

    /// Header line of the CSV form.
    pub const HEADER: &'static str = "k,v\n";

    /// The CSV form: `k,v` header, one record per row.
    pub fn csv(&self) -> String {
        let mut out = String::with_capacity(self.keys.len() * 14 + Self::HEADER.len());
        out.push_str(Self::HEADER);
        for (k, v) in self.keys.iter().zip(&self.vals) {
            let _ = writeln!(out, "{k},{v}");
        }
        out
    }

    /// The NDJSON `rows` requests of `hsa serve`, `chunk` rows each, one
    /// line (with its newline) per request.
    pub fn rows_requests(&self, chunk: usize) -> Vec<String> {
        let join = |vals: &[u64]| {
            let mut s = String::with_capacity(vals.len() * 8);
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{v}");
            }
            s
        };
        self.keys
            .chunks(chunk)
            .zip(self.vals.chunks(chunk))
            .map(|(k, v)| {
                format!("{{\"op\":\"rows\",\"keys\":[{}],\"cols\":[[{}]]}}\n", join(k), join(v))
            })
            .collect()
    }
}

/// The low-cardinality sales table: two string grouping columns drawn
/// Zipf-skewed, two numeric columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sales {
    /// City index in `[0, 64)`; the country is `city / 8`.
    pub city: Vec<u8>,
    /// Aggregated by SUM.
    pub amount: Vec<u64>,
    /// Aggregated by MAX.
    pub qty: Vec<u64>,
}

impl Sales {
    /// Header line of the CSV form.
    pub const HEADER: &'static str = "country,city,amount,qty\n";

    /// `rows` sales rows.
    pub fn generate(seed: u64, rows: usize) -> Self {
        let n_cities = (COUNTRIES.len() * CITIES_PER_COUNTRY) as u64;
        let zipf = Zipf::new(n_cities, CITY_ZIPF_EXPONENT);
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut city = Vec::with_capacity(rows);
        let mut amount = Vec::with_capacity(rows);
        let mut qty = Vec::with_capacity(rows);
        for _ in 0..rows {
            // Zipf ranks start at 1; cities at 0.
            city.push((zipf.sample(&mut rng) - 1) as u8);
            amount.push(rng.below(100_000));
            qty.push(1 + rng.below(99));
        }
        Self { city, amount, qty }
    }

    /// Country name of a city index.
    pub fn country(city: u8) -> &'static str {
        COUNTRIES[usize::from(city) / CITIES_PER_COUNTRY]
    }

    /// City name of a city index, e.g. `de-city03`.
    pub fn city_name(city: u8) -> String {
        format!("{}-city{:02}", Self::country(city), usize::from(city) % CITIES_PER_COUNTRY)
    }

    /// The CSV form.
    pub fn csv(&self) -> String {
        let names: Vec<String> = (0..64u8).map(Self::city_name).collect();
        let mut out = String::with_capacity(self.city.len() * 24 + Self::HEADER.len());
        out.push_str(Self::HEADER);
        for ((&c, a), q) in self.city.iter().zip(&self.amount).zip(&self.qty) {
            let _ = writeln!(out, "{},{},{a},{q}", Self::country(c), names[usize::from(c)]);
        }
        out
    }
}
