//! Geographic primitives: points, bounding boxes and distances.
//!
//! All distances are in meters. Coordinates are WGS-84 degrees, matching the
//! schema of the paper's GPS dataset (latitude, longitude).

use serde::{Deserialize, Serialize};

/// Mean Earth radius in meters, used by the haversine distance.
pub const EARTH_RADIUS_M: f64 = 6_371_000.0;

/// A WGS-84 position (degrees latitude / longitude).
///
/// # Examples
///
/// ```
/// use mobirescue_roadnet::geo::GeoPoint;
///
/// let charlotte = GeoPoint::new(35.2271, -80.8431);
/// let raleigh = GeoPoint::new(35.7796, -78.6382);
/// let d = charlotte.distance_m(raleigh);
/// assert!((d - 209_000.0).abs() < 5_000.0, "≈209 km, got {d}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point from latitude and longitude in degrees.
    pub fn new(lat: f64, lon: f64) -> Self {
        Self { lat, lon }
    }

    /// Great-circle (haversine) distance to `other`, in meters. The
    /// one-shot case of [`HaversinePoint::distance_m`].
    pub fn distance_m(self, other: GeoPoint) -> f64 {
        HaversinePoint::new(self).distance_m(&HaversinePoint::new(other))
    }

    /// Returns the point displaced by `east_m` meters east and `north_m`
    /// meters north, using a local equirectangular approximation.
    ///
    /// Accurate to well under a meter at city scale, which is all the
    /// procedural city generator needs. The one-shot case of
    /// [`LocalProjection::offset_m`].
    pub fn offset_m(self, east_m: f64, north_m: f64) -> GeoPoint {
        LocalProjection::new(self).offset_m(east_m, north_m)
    }

    /// Local planar coordinates of `self` relative to `origin`, in meters
    /// (east, north). Inverse of [`GeoPoint::offset_m`] at city scale.
    pub fn local_xy_m(self, origin: GeoPoint) -> (f64, f64) {
        LocalProjection::new(origin).xy_m(self)
    }

    /// Midpoint between `self` and `other` (arithmetic in degrees; fine at
    /// city scale away from the antimeridian).
    pub fn midpoint(self, other: GeoPoint) -> GeoPoint {
        GeoPoint::new((self.lat + other.lat) / 2.0, (self.lon + other.lon) / 2.0)
    }
}

/// The local east/north projection around a fixed origin, with the cosine
/// of the origin's latitude taken once: [`GeoPoint::local_xy_m`] and
/// [`GeoPoint::offset_m`] for many points against one origin, bit for bit.
///
/// # Examples
///
/// ```
/// use mobirescue_roadnet::geo::{GeoPoint, LocalProjection};
///
/// let origin = GeoPoint::new(35.2271, -80.8431);
/// let projection = LocalProjection::new(origin);
/// let p = projection.offset_m(1_500.0, -2_300.0);
/// assert_eq!(p, origin.offset_m(1_500.0, -2_300.0));
/// assert_eq!(projection.xy_m(p), p.local_xy_m(origin));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalProjection {
    origin: GeoPoint,
    cos_lat: f64,
}

impl LocalProjection {
    /// The projection around `origin`.
    pub fn new(origin: GeoPoint) -> Self {
        Self {
            origin,
            cos_lat: origin.lat.to_radians().cos(),
        }
    }

    /// Planar coordinates of `p` relative to the origin, in meters (east,
    /// north).
    pub fn xy_m(&self, p: GeoPoint) -> (f64, f64) {
        let north = (p.lat - self.origin.lat).to_radians() * EARTH_RADIUS_M;
        let east = (p.lon - self.origin.lon).to_radians() * EARTH_RADIUS_M * self.cos_lat;
        (east, north)
    }

    /// The origin displaced by `east_m` meters east and `north_m` meters
    /// north (see [`GeoPoint::offset_m`]).
    pub fn offset_m(&self, east_m: f64, north_m: f64) -> GeoPoint {
        let dlat = north_m / EARTH_RADIUS_M;
        let dlon = east_m / (EARTH_RADIUS_M * self.cos_lat);
        GeoPoint::new(
            self.origin.lat + dlat.to_degrees(),
            self.origin.lon + dlon.to_degrees(),
        )
    }
}

/// One end of a haversine distance, with its radians and the cosine of its
/// latitude taken once: [`GeoPoint::distance_m`] for many distances from
/// or to one point, bit for bit.
///
/// # Examples
///
/// ```
/// use mobirescue_roadnet::geo::{GeoPoint, HaversinePoint};
///
/// let charlotte = GeoPoint::new(35.2271, -80.8431);
/// let raleigh = GeoPoint::new(35.7796, -78.6382);
/// let held = HaversinePoint::new(charlotte);
/// let d = held.distance_m(&HaversinePoint::new(raleigh));
/// assert_eq!(d, charlotte.distance_m(raleigh));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HaversinePoint {
    lat_rad: f64,
    lon_rad: f64,
    cos_lat: f64,
}

impl HaversinePoint {
    /// The endpoint at `p`.
    pub fn new(p: GeoPoint) -> Self {
        let lat_rad = p.lat.to_radians();
        Self {
            lat_rad,
            lon_rad: p.lon.to_radians(),
            cos_lat: lat_rad.cos(),
        }
    }

    /// Great-circle distance to `other`, in meters (see
    /// [`GeoPoint::distance_m`]; the deltas run from `self` to `other`).
    pub fn distance_m(&self, other: &HaversinePoint) -> f64 {
        let dlat = other.lat_rad - self.lat_rad;
        let dlon = other.lon_rad - self.lon_rad;
        let a =
            (dlat / 2.0).sin().powi(2) + self.cos_lat * other.cos_lat * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }
}

/// An axis-aligned latitude/longitude rectangle.
///
/// The paper crops its dataset with the bounding box south-west
/// (35.6022, −79.0735), north-east (36.0070, −78.2592); the data-cleaning
/// stage filters positions outside the box of interest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    /// South-west corner.
    pub south_west: GeoPoint,
    /// North-east corner.
    pub north_east: GeoPoint,
}

impl BoundingBox {
    /// Creates a bounding box from its south-west and north-east corners.
    ///
    /// # Panics
    ///
    /// Panics if the corners are not in south-west / north-east order.
    pub fn new(south_west: GeoPoint, north_east: GeoPoint) -> Self {
        assert!(
            south_west.lat <= north_east.lat && south_west.lon <= north_east.lon,
            "corners must be given in (south-west, north-east) order"
        );
        Self {
            south_west,
            north_east,
        }
    }

    /// The smallest box containing every point of `iter`, or `None` when the
    /// iterator is empty.
    pub fn enclosing<I: IntoIterator<Item = GeoPoint>>(iter: I) -> Option<Self> {
        let mut it = iter.into_iter();
        let first = it.next()?;
        let (mut s, mut w, mut n, mut e) = (first.lat, first.lon, first.lat, first.lon);
        for p in it {
            s = s.min(p.lat);
            n = n.max(p.lat);
            w = w.min(p.lon);
            e = e.max(p.lon);
        }
        Some(Self::new(GeoPoint::new(s, w), GeoPoint::new(n, e)))
    }

    /// Whether `p` lies inside the box (inclusive).
    pub fn contains(&self, p: GeoPoint) -> bool {
        p.lat >= self.south_west.lat
            && p.lat <= self.north_east.lat
            && p.lon >= self.south_west.lon
            && p.lon <= self.north_east.lon
    }

    /// Center of the box.
    pub fn center(&self) -> GeoPoint {
        self.south_west.midpoint(self.north_east)
    }

    /// Grows the box by `margin_m` meters on every side.
    pub fn expanded_m(&self, margin_m: f64) -> BoundingBox {
        BoundingBox::new(
            self.south_west.offset_m(-margin_m, -margin_m),
            self.north_east.offset_m(margin_m, margin_m),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_zero_for_same_point() {
        let p = GeoPoint::new(35.2271, -80.8431);
        assert_eq!(p.distance_m(p), 0.0);
    }

    #[test]
    fn haversine_symmetric() {
        let a = GeoPoint::new(35.2, -80.8);
        let b = GeoPoint::new(35.3, -80.7);
        assert!((a.distance_m(b) - b.distance_m(a)).abs() < 1e-9);
    }

    #[test]
    fn one_degree_latitude_is_about_111_km() {
        let a = GeoPoint::new(35.0, -80.0);
        let b = GeoPoint::new(36.0, -80.0);
        let d = a.distance_m(b);
        assert!((d - 111_195.0).abs() < 100.0, "got {d}");
    }

    #[test]
    fn offset_round_trips_through_local_xy() {
        let origin = GeoPoint::new(35.2271, -80.8431);
        let moved = origin.offset_m(1500.0, -2300.0);
        let (east, north) = moved.local_xy_m(origin);
        assert!((east - 1500.0).abs() < 0.5, "east {east}");
        assert!((north + 2300.0).abs() < 0.5, "north {north}");
    }

    #[test]
    fn projection_matches_the_inline_expression_bit_for_bit() {
        // The expression `local_xy_m` evaluated before the projection held
        // the origin's cosine.
        let inline = |p: GeoPoint, origin: GeoPoint| {
            let north = (p.lat - origin.lat).to_radians() * EARTH_RADIUS_M;
            let east =
                (p.lon - origin.lon).to_radians() * EARTH_RADIUS_M * origin.lat.to_radians().cos();
            (east.to_bits(), north.to_bits())
        };
        let origins = [
            GeoPoint::new(35.2271, -80.8431),
            GeoPoint::new(-33.8688, 151.2093),
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(64.1466, -21.9426),
        ];
        for origin in origins {
            let projection = LocalProjection::new(origin);
            for i in -6..=6 {
                for j in -6..=6 {
                    let p = origin.offset_m(i as f64 * 3_137.5, j as f64 * -2_211.25);
                    let (east, north) = projection.xy_m(p);
                    assert_eq!((east.to_bits(), north.to_bits()), inline(p, origin));
                    let (east, north) = p.local_xy_m(origin);
                    assert_eq!((east.to_bits(), north.to_bits()), inline(p, origin));
                }
            }
        }
    }

    #[test]
    fn held_offset_matches_the_inline_expression_bit_for_bit() {
        // The expression `offset_m` evaluated before the projection held
        // the origin's cosine.
        let inline = |origin: GeoPoint, east_m: f64, north_m: f64| {
            let dlat = north_m / EARTH_RADIUS_M;
            let dlon = east_m / (EARTH_RADIUS_M * origin.lat.to_radians().cos());
            let p = GeoPoint::new(
                origin.lat + dlat.to_degrees(),
                origin.lon + dlon.to_degrees(),
            );
            (p.lat.to_bits(), p.lon.to_bits())
        };
        let bits = |p: GeoPoint| (p.lat.to_bits(), p.lon.to_bits());
        let origins = [
            GeoPoint::new(35.2271, -80.8431),
            GeoPoint::new(-33.8688, 151.2093),
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(64.1466, -21.9426),
        ];
        for origin in origins {
            // One projection held for every offset, as ping sampling holds
            // an anchor's.
            let projection = LocalProjection::new(origin);
            for i in -6..=6 {
                for j in -6..=6 {
                    let (east, north) = (i as f64 * 3_137.5 + 0.1, j as f64 * -2_211.25 - 0.3);
                    let want = inline(origin, east, north);
                    assert_eq!(bits(projection.offset_m(east, north)), want);
                    assert_eq!(bits(origin.offset_m(east, north)), want);
                }
            }
        }
    }

    #[test]
    fn held_haversine_matches_distance_m_bit_for_bit() {
        // The expression `distance_m` evaluated before an endpoint could
        // hold its radians and latitude cosine.
        let inline = |a: GeoPoint, b: GeoPoint| {
            let (lat1, lon1) = (a.lat.to_radians(), a.lon.to_radians());
            let (lat2, lon2) = (b.lat.to_radians(), b.lon.to_radians());
            let dlat = lat2 - lat1;
            let dlon = lon2 - lon1;
            let h =
                (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
            (2.0 * EARTH_RADIUS_M * h.sqrt().asin()).to_bits()
        };
        let origins = [
            GeoPoint::new(35.2271, -80.8431),
            GeoPoint::new(-33.8688, 151.2093),
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(64.1466, -21.9426),
        ];
        for origin in origins {
            // One endpoint held against every other, from both sides, as
            // the dispatcher holds a team's against the zone anchors.
            let held = HaversinePoint::new(origin);
            for i in -6..=6 {
                for j in -6..=6 {
                    let p = origin.offset_m(i as f64 * 3_137.5 + 0.1, j as f64 * -2_211.25 - 0.3);
                    let other = HaversinePoint::new(p);
                    assert_eq!(held.distance_m(&other).to_bits(), inline(origin, p));
                    assert_eq!(other.distance_m(&held).to_bits(), inline(p, origin));
                    assert_eq!(origin.distance_m(p).to_bits(), inline(origin, p));
                    assert_eq!(p.distance_m(origin).to_bits(), inline(p, origin));
                }
            }
        }
    }

    #[test]
    fn offset_distance_matches_haversine() {
        let origin = GeoPoint::new(35.2271, -80.8431);
        let moved = origin.offset_m(3000.0, 4000.0);
        let d = origin.distance_m(moved);
        assert!((d - 5000.0).abs() < 5.0, "got {d}");
    }

    #[test]
    fn bbox_contains_and_center() {
        let bb = BoundingBox::new(GeoPoint::new(35.0, -81.0), GeoPoint::new(36.0, -80.0));
        assert!(bb.contains(GeoPoint::new(35.5, -80.5)));
        assert!(bb.contains(bb.south_west));
        assert!(bb.contains(bb.north_east));
        assert!(!bb.contains(GeoPoint::new(34.9, -80.5)));
        assert!(!bb.contains(GeoPoint::new(35.5, -79.9)));
        let c = bb.center();
        assert!((c.lat - 35.5).abs() < 1e-12 && (c.lon + 80.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "south-west")]
    fn bbox_rejects_swapped_corners() {
        let _ = BoundingBox::new(GeoPoint::new(36.0, -80.0), GeoPoint::new(35.0, -81.0));
    }

    #[test]
    fn enclosing_covers_all_points() {
        let pts = [
            GeoPoint::new(35.1, -80.9),
            GeoPoint::new(35.9, -80.1),
            GeoPoint::new(35.4, -80.6),
        ];
        let bb = BoundingBox::enclosing(pts).unwrap();
        for p in pts {
            assert!(bb.contains(p));
        }
        assert!(BoundingBox::enclosing(std::iter::empty()).is_none());
    }

    #[test]
    fn expanded_box_contains_original() {
        let bb = BoundingBox::new(GeoPoint::new(35.0, -81.0), GeoPoint::new(36.0, -80.0));
        let big = bb.expanded_m(1000.0);
        assert!(big.contains(bb.south_west) && big.contains(bb.north_east));
        assert!(!bb.contains(big.south_west));
    }
}
