//! Small fixed-size linear algebra for astrodynamics.
//!
//! A hand-rolled 3-vector and 3x3 matrix are all the orbital code needs;
//! using a dedicated module keeps the hot propagation paths free of generic
//! indirection and external dependencies.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-dimensional vector of `f64` components.
///
/// Units are context-dependent (kilometers for positions, km/s for
/// velocities, radians for angle triplets).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Unit vector along X.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };

    /// Unit vector along Y.
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };

    /// Unit vector along Z.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Construct from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product (right-handed).
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared norm (avoids the square root on hot paths).
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Unit vector in the same direction. Returns `Vec3::ZERO` for the zero
    /// vector rather than dividing by zero.
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n == 0.0 {
            Vec3::ZERO
        } else {
            self / n
        }
    }

    /// Distance between two points.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// True if all components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A 3x3 matrix stored row-major, used for frame rotations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    /// Rows of the matrix.
    pub rows: [[f64; 3]; 3],
}

impl Mat3 {
    /// Construct from rows.
    pub const fn from_rows(r0: [f64; 3], r1: [f64; 3], r2: [f64; 3]) -> Self {
        Mat3 { rows: [r0, r1, r2] }
    }

    /// Rotation about the Z axis by `theta` radians.
    pub fn rot_z(theta: f64) -> Mat3 {
        let (s, c) = theta.sin_cos();
        Mat3::from_rows([c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0])
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        let r = &self.rows;
        Vec3::new(
            r[0][0] * v.x + r[0][1] * v.y + r[0][2] * v.z,
            r[1][0] * v.x + r[1][1] * v.y + r[1][2] * v.z,
            r[2][0] * v.x + r[2][1] * v.y + r[2][2] * v.z,
        )
    }

    /// Determinant.
    pub fn det(&self) -> f64 {
        let r = &self.rows;
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    }
}

/// Normalize an angle to the range `[0, 2*pi)`.
///
/// `%` on floats is exact, so it is the identity on `(-2*pi, 2*pi)` and the
/// two ranges most callers pass — an angle already wrapped, or one turn
/// below — skip its `fmod` call for the same bits.
pub fn wrap_two_pi(angle: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    if (0.0..tau).contains(&angle) {
        return angle;
    }
    let a = if -tau < angle && angle < 0.0 { angle } else { angle % tau };
    if a < 0.0 {
        // A negative remainder under half an ulp of tau rounds up to tau
        // itself, outside the range: that one is zero.
        let up = a + tau;
        if up < tau {
            up
        } else {
            0.0
        }
    } else {
        a
    }
}

/// Normalize an angle to the range `(-pi, pi]`.
pub fn wrap_pi(angle: f64) -> f64 {
    let a = wrap_two_pi(angle);
    if a > std::f64::consts::PI {
        a - std::f64::consts::TAU
    } else {
        a
    }
}

/// Degrees to radians.
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * std::f64::consts::PI / 180.0
}

/// Radians to degrees.
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / std::f64::consts::PI
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    #[test]
    fn vec_basics() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, -3.0, 9.0));
        assert_eq!(a - b, Vec3::new(-3.0, 7.0, -3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert!((a.dot(b) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn cross_is_right_handed() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn cross_is_antisymmetric() {
        let a = Vec3::new(1.3, -0.2, 2.7);
        let b = Vec3::new(-4.0, 0.5, 1.1);
        let c = a.cross(b) + b.cross(a);
        assert!(c.norm() < 1e-12);
    }

    #[test]
    fn normalized_zero_is_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn rotation_preserves_norm() {
        let v = Vec3::new(3.0, -4.0, 12.0);
        for theta in [0.1, 1.0, 2.5, -0.7] {
            let m = Mat3::rot_z(theta);
            assert!((m.mul_vec(v).norm() - v.norm()).abs() < 1e-12);
            assert!((m.det() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rot_z_frame_convention() {
        // Rotating the frame by +90 degrees about Z maps the old +X axis to
        // the new frame's -Y... check: v expressed in old frame = X; in new
        // frame coordinates it should be (cos, -sin?, ...). With our
        // convention R_z(90) * X = (0, -1, 0)? sin(90)=1:
        // row0 = (0, 1, 0) -> x' = v.y = 0; row1 = (-1, 0, 0) -> y' = -1.
        let v = Mat3::rot_z(FRAC_PI_2).mul_vec(Vec3::X);
        assert!((v - Vec3::new(0.0, -1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn wrap_angles() {
        assert!((wrap_two_pi(-0.1) - (TAU - 0.1)).abs() < 1e-12);
        assert!((wrap_two_pi(TAU + 0.25) - 0.25).abs() < 1e-12);
        assert!((wrap_pi(PI + 0.1) - (-PI + 0.1)).abs() < 1e-12);
        assert!((wrap_pi(-PI - 0.1) - (PI - 0.1)).abs() < 1e-12);
    }

    /// The `%` spelling `wrap_two_pi` had before its fast paths, kept as
    /// the bit-for-bit reference.
    fn wrap_two_pi_reference(angle: f64) -> f64 {
        let tau = TAU;
        let mut a = angle % tau;
        if a < 0.0 {
            a += tau;
        }
        a
    }

    #[test]
    fn wrap_two_pi_matches_reference_bitwise() {
        let same = |x: f64| {
            let (got, want) = (wrap_two_pi(x), wrap_two_pi_reference(x));
            assert_eq!(got.to_bits(), want.to_bits(), "wrap_two_pi({x:e}): {got:e} vs {want:e}");
        };
        let eps = f64::EPSILON;
        for x in [0.0, TAU, TAU * (1.0 + eps), TAU * (1.0 - eps), 2.0 * TAU, 1e300, PI, 1e-15] {
            same(x);
            same(-x);
        }
        same(1e-300);
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(wrap_two_pi(x).is_nan() && wrap_two_pi_reference(x).is_nan(), "{x}");
        }
        // A seeded sweep across [-100, 100]: both fast paths and the `%`.
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for _ in 0..100_000 {
            same(rng.gen_range(-100.0..100.0));
        }
    }

    #[test]
    fn wrap_two_pi_never_returns_tau() {
        // Negative inputs under half an ulp of tau: `a % tau + tau` rounds
        // to tau exactly, outside `[0, 2*pi)`. The reference does that; the
        // function maps them to zero. (Only inputs above -tau can: below
        // it a remainder is a whole number of tau's ulps.)
        for x in [-1e-17, -4.0e-16, -f64::MIN_POSITIVE, -1e-300] {
            assert_eq!(wrap_two_pi_reference(x), TAU, "{x:e}");
            assert_eq!(wrap_two_pi(x).to_bits(), 0.0f64.to_bits(), "{x:e}");
            assert_eq!(wrap_pi(x), 0.0, "{x:e}");
        }
        // The nearest input that does not round up keeps its value.
        let x = -TAU * f64::EPSILON;
        assert_eq!(wrap_two_pi(x), wrap_two_pi_reference(x));
        assert!(wrap_two_pi(x) < TAU);
    }

    #[test]
    fn deg_rad_roundtrip() {
        for d in [-720.0, -53.0, 0.0, 28.5, 97.6, 360.0] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-10);
        }
    }
}

/// Solve the dense linear system `A x = b` by Gaussian elimination with
/// partial pivoting. `a` is row-major and consumed; returns `None` when the
/// matrix is singular (pivot below 1e-12 after scaling).
#[allow(clippy::needless_range_loop)] // row elimination reads a[col][k] while writing a[row][k]
pub fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    assert!(a.len() == n && a.iter().all(|r| r.len() == n), "A must be n x n");
    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n).max_by(|&i, &j| {
            a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap()
        })?;
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for k in (col + 1)..n {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod solver_tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve_linear_system(a, vec![3.0, -4.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] + 4.0).abs() < 1e-12);
    }

    #[test]
    fn solves_requiring_pivot() {
        // First pivot is zero: requires row swap.
        let a = vec![vec![0.0, 1.0], vec![2.0, 1.0]];
        let x = solve_linear_system(a, vec![1.0, 4.0]).unwrap();
        // 2x + y = 4, y = 1 -> x = 1.5.
        assert!((x[0] - 1.5).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve_linear_system(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn random_3x3_residual() {
        let a = vec![
            vec![4.0, -2.0, 1.0],
            vec![3.0, 6.0, -4.0],
            vec![2.0, 1.0, 8.0],
        ];
        let b = vec![12.0, -25.0, 32.0];
        let x = solve_linear_system(a.clone(), b.clone()).unwrap();
        for i in 0..3 {
            let got: f64 = (0..3).map(|j| a[i][j] * x[j]).sum();
            assert!((got - b[i]).abs() < 1e-9);
        }
    }
}
