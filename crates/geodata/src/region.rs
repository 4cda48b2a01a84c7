//! Named geographic regions and receiver-grid sampling.
//!
//! Regional coverage (e.g. "Taiwan", the paper's running example) is
//! evaluated by placing a small grid of receivers across the region rather
//! than a single point, so coverage statistics reflect the whole service
//! area.

use orbital::frames::Geodetic;
use orbital::ground::GroundSite;
use serde::{Deserialize, Serialize};

/// A latitude/longitude bounding box describing a service region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Region name.
    pub name: String,
    /// Southern boundary, degrees.
    pub lat_min_deg: f64,
    /// Northern boundary, degrees.
    pub lat_max_deg: f64,
    /// Western boundary, degrees.
    pub lon_min_deg: f64,
    /// Eastern boundary, degrees.
    pub lon_max_deg: f64,
}

impl Region {
    /// Construct a region, validating the bounds.
    pub fn new(name: impl Into<String>, lat_min: f64, lat_max: f64, lon_min: f64, lon_max: f64) -> Self {
        assert!(lat_min < lat_max, "lat bounds inverted");
        assert!(lon_min < lon_max, "lon bounds inverted (wraparound unsupported)");
        assert!((-90.0..=90.0).contains(&lat_min) && (-90.0..=90.0).contains(&lat_max));
        Region {
            name: name.into(),
            lat_min_deg: lat_min,
            lat_max_deg: lat_max,
            lon_min_deg: lon_min,
            lon_max_deg: lon_max,
        }
    }

    /// Taiwan (the paper's motivating region).
    pub fn taiwan() -> Region {
        Region::new("Taiwan", 21.9, 25.3, 120.0, 122.0)
    }

    /// Ukraine (the paper's second motivating scenario).
    pub fn ukraine() -> Region {
        Region::new("Ukraine", 44.4, 52.4, 22.1, 40.2)
    }

    /// South Korea.
    pub fn south_korea() -> Region {
        Region::new("South Korea", 33.1, 38.6, 125.9, 129.6)
    }

    /// The region's center point.
    pub fn center(&self) -> Geodetic {
        Geodetic::from_degrees(
            (self.lat_min_deg + self.lat_max_deg) / 2.0,
            (self.lon_min_deg + self.lon_max_deg) / 2.0,
            0.0,
        )
    }

    /// Whether a geodetic point falls inside the region (boundary points
    /// count as inside, with a degree-roundtrip epsilon).
    pub fn contains(&self, g: &Geodetic) -> bool {
        const EPS: f64 = 1e-9;
        let lat = g.latitude_deg();
        let lon = g.longitude_deg();
        lat >= self.lat_min_deg - EPS
            && lat <= self.lat_max_deg + EPS
            && lon >= self.lon_min_deg - EPS
            && lon <= self.lon_max_deg + EPS
    }

    /// An `n x n` grid of receiver sites spanning the region (inclusive of
    /// the boundary rows/columns for `n >= 2`; `n == 1` yields the center).
    pub fn receiver_grid(&self, n: usize) -> Vec<GroundSite> {
        assert!(n >= 1);
        if n == 1 {
            return vec![GroundSite::new(format!("{}-c", self.name), self.center())];
        }
        let mut sites = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let fi = i as f64 / (n - 1) as f64;
                let fj = j as f64 / (n - 1) as f64;
                let lat = self.lat_min_deg + fi * (self.lat_max_deg - self.lat_min_deg);
                let lon = self.lon_min_deg + fj * (self.lon_max_deg - self.lon_min_deg);
                sites.push(GroundSite::new(
                    format!("{}-{i}-{j}", self.name),
                    Geodetic::from_degrees(lat, lon, 0.0),
                ));
            }
        }
        sites
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taiwan_contains_taipei() {
        let r = Region::taiwan();
        let taipei = Geodetic::from_degrees(25.033, 121.565, 0.0);
        assert!(r.contains(&taipei));
        let tokyo = Geodetic::from_degrees(35.69, 139.69, 0.0);
        assert!(!r.contains(&tokyo));
    }

    #[test]
    fn center_in_region() {
        for r in [Region::taiwan(), Region::ukraine(), Region::south_korea()] {
            assert!(r.contains(&r.center()), "{}", r.name);
        }
    }

    #[test]
    fn grid_sizes() {
        let r = Region::taiwan();
        assert_eq!(r.receiver_grid(1).len(), 1);
        assert_eq!(r.receiver_grid(3).len(), 9);
        for s in r.receiver_grid(4) {
            assert!(r.contains(&s.geodetic), "{}", s.name);
        }
    }

    #[test]
    fn grid_spans_boundaries() {
        let r = Region::taiwan();
        let g = r.receiver_grid(2);
        let lats: Vec<f64> = g.iter().map(|s| s.geodetic.latitude_deg()).collect();
        assert!(lats.iter().any(|&l| (l - r.lat_min_deg).abs() < 1e-9));
        assert!(lats.iter().any(|&l| (l - r.lat_max_deg).abs() < 1e-9));
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        Region::new("bad", 10.0, 5.0, 0.0, 1.0);
    }
}
