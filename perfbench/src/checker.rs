//! An AC-OPF certificate that shares no code with the solvers.
//!
//! It reads only the raw MATPOWER-style fields of a [`Case`] (bus loads and
//! shunts, generator limits and costs, branch `r`, `x`, `b`, `tap`, `shift`,
//! `rate_a`) and rebuilds every quantity itself: the π-model branch
//! admittances in complex arithmetic, the bus power balance, line ratings,
//! voltage and generator bounds, and the generation cost. The solvers'
//! compiled `Network` and the `gridsim-acopf` evaluation are never called,
//! so a fault in either shows up here as a violation instead of being
//! agreed with.
//!
//! Solution vectors follow the solvers' external convention: one entry per
//! in-service bus / generator, in case order; powers in per unit on the
//! case base, angles in radians.

use gridsim_grid::{BusType, Case};

#[derive(Debug, Clone, Copy)]
struct C {
    re: f64,
    im: f64,
}

impl C {
    fn new(re: f64, im: f64) -> C {
        C { re, im }
    }
    fn polar(m: f64, a: f64) -> C {
        C::new(m * a.cos(), m * a.sin())
    }
    fn add(self, o: C) -> C {
        C::new(self.re + o.re, self.im + o.im)
    }
    fn mul(self, o: C) -> C {
        C::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
    fn div(self, o: C) -> C {
        let d = o.re * o.re + o.im * o.im;
        C::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
    fn conj(self) -> C {
        C::new(self.re, -self.im)
    }
    fn scale(self, s: f64) -> C {
        C::new(self.re * s, self.im * s)
    }
    fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// Worst violation of each constraint family (per unit) and the cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Certificate {
    pub p_balance: f64,
    pub q_balance: f64,
    pub line: f64,
    pub voltage: f64,
    pub gen_bounds: f64,
    /// Generation cost in $/hr.
    pub cost: f64,
}

impl Certificate {
    /// The worst violation over every family: the paper's `‖c(x)‖∞`.
    pub fn max_violation(&self) -> f64 {
        self.p_balance
            .max(self.q_balance)
            .max(self.line)
            .max(self.voltage)
            .max(self.gen_bounds)
    }

    /// Line, voltage and generator-bound violation without the balance
    /// rows: the constraint-stress margin a contingency screen bands by.
    pub fn stress_margin(&self) -> f64 {
        self.line.max(self.voltage).max(self.gen_bounds)
    }
}

/// True when `value` is above `tol` or not a number: a NaN residual fails a
/// check instead of slipping past a `>` comparison.
pub fn exceeds(value: f64, tol: f64) -> bool {
    value.is_nan() || value > tol
}

/// An operating point to certify (per unit, radians).
#[derive(Debug, Clone, Copy)]
pub struct Point<'a> {
    pub vm: &'a [f64],
    pub va: &'a [f64],
    pub pg: &'a [f64],
    pub qg: &'a [f64],
}

/// Certify `point` against the raw `case`. Fails only when the point's
/// dimensions do not match the case's in-service components or a branch
/// names a bus that is not in service.
pub fn certify(case: &Case, point: Point<'_>) -> Result<Certificate, String> {
    let base = case.base_mva;
    let buses: Vec<_> = case
        .buses
        .iter()
        .filter(|b| b.bus_type != BusType::Isolated)
        .collect();
    let gens: Vec<_> = case.generators.iter().filter(|g| g.status).collect();
    let nb = buses.len();
    if point.vm.len() != nb || point.va.len() != nb {
        return Err(format!(
            "voltage vectors have {}/{} entries for {nb} buses",
            point.vm.len(),
            point.va.len()
        ));
    }
    if point.pg.len() != gens.len() || point.qg.len() != gens.len() {
        return Err(format!(
            "dispatch vectors have {}/{} entries for {} generators",
            point.pg.len(),
            point.qg.len(),
            gens.len()
        ));
    }
    let pos = |id: usize| {
        buses
            .iter()
            .position(|b| b.id == id)
            .ok_or_else(|| format!("bus {id} is not in service"))
    };
    let v: Vec<C> = (0..nb)
        .map(|k| C::polar(point.vm[k], point.va[k]))
        .collect();

    let mut cert = Certificate::default();
    // Net injection into the network at each bus: generation − load − shunt.
    let mut inj: Vec<C> = buses
        .iter()
        .enumerate()
        .map(|(k, b)| {
            let vm2 = point.vm[k] * point.vm[k];
            C::new(-(b.pd + b.gs * vm2) / base, -(b.qd - b.bs * vm2) / base)
        })
        .collect();
    for (g, gen) in gens.iter().enumerate() {
        let k = pos(gen.bus)?;
        inj[k] = inj[k].add(C::new(point.pg[g], point.qg[g]));
        let (pg, qg) = (point.pg[g], point.qg[g]);
        cert.gen_bounds = cert
            .gen_bounds
            .max(gen.pmin / base - pg)
            .max(pg - gen.pmax / base)
            .max(gen.qmin / base - qg)
            .max(qg - gen.qmax / base);
        let p_mw = pg * base;
        cert.cost += gen.cost.c2 * p_mw * p_mw + gen.cost.c1 * p_mw + gen.cost.c0;
    }

    for br in case.branches.iter().filter(|b| b.status) {
        let (f, t) = (pos(br.from)?, pos(br.to)?);
        // π model: series ys between the ideal transformer (tap ∠ shift on
        // the from side) and the to bus, half the line charging at each end.
        let ys = C::new(1.0, 0.0).div(C::new(br.r, br.x));
        let tap = if br.tap == 0.0 { 1.0 } else { br.tap };
        let ratio = C::polar(tap, br.shift.to_radians());
        let ytt = ys.add(C::new(0.0, br.b / 2.0));
        let yff = ytt.scale(1.0 / (tap * tap));
        let yft = ys.scale(-1.0).div(ratio.conj());
        let ytf = ys.scale(-1.0).div(ratio);
        let i_f = yff.mul(v[f]).add(yft.mul(v[t]));
        let i_t = ytf.mul(v[f]).add(ytt.mul(v[t]));
        let s_f = v[f].mul(i_f.conj());
        let s_t = v[t].mul(i_t.conj());
        inj[f] = inj[f].add(s_f.scale(-1.0));
        inj[t] = inj[t].add(s_t.scale(-1.0));
        if br.rate_a > 0.0 {
            let rate = br.rate_a / base;
            cert.line = cert.line.max(s_f.abs() - rate).max(s_t.abs() - rate);
        }
    }

    for (k, b) in buses.iter().enumerate() {
        cert.p_balance = cert.p_balance.max(inj[k].re.abs());
        cert.q_balance = cert.q_balance.max(inj[k].im.abs());
        cert.voltage = cert
            .voltage
            .max(b.vmin - point.vm[k])
            .max(point.vm[k] - b.vmax);
    }
    Ok(cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_grid::{Branch, Bus, GenCost, Generator};

    /// Two buses joined by a lossless reactance x = 0.1 p.u. Bus 1 holds
    /// the generator at 1∠0; bus 2 draws 50 MW. By hand, with θ = asin(0.05)
    /// the line carries P = sin θ / x = 0.5 p.u. and each end absorbs
    /// Q = (1 − cos θ) / x of reactive power.
    fn two_bus() -> (Case, f64, f64) {
        let theta = 0.05f64.asin();
        let q_end = (1.0 - theta.cos()) / 0.1;
        let mut slack = Bus::load_bus(1, 0.0, 0.0);
        slack.bus_type = BusType::Ref;
        let load = Bus::load_bus(2, 50.0, -100.0 * q_end);
        let gen = Generator::new(
            1,
            0.0,
            100.0,
            GenCost {
                c2: 0.01,
                c1: 10.0,
                c0: 5.0,
            },
        );
        let case = Case {
            name: "hand".into(),
            base_mva: 100.0,
            buses: vec![slack, load],
            generators: vec![gen],
            branches: vec![Branch::line(1, 2, 0.0, 0.1, 0.0, 60.0)],
        };
        (case, theta, q_end)
    }

    #[test]
    fn hand_worked_two_bus_flow_passes() {
        let (case, theta, q_end) = two_bus();
        let cert = certify(
            &case,
            Point {
                vm: &[1.0, 1.0],
                va: &[0.0, -theta],
                pg: &[0.5],
                qg: &[q_end],
            },
        )
        .unwrap();
        assert!(cert.max_violation() < 1e-12, "{cert:?}");
        // 0.01·50² + 10·50 + 5 $/hr.
        assert!((cert.cost - 530.0).abs() < 1e-9, "cost {}", cert.cost);
    }

    #[test]
    fn perturbed_angle_fails() {
        let (case, theta, q_end) = two_bus();
        let cert = certify(
            &case,
            Point {
                vm: &[1.0, 1.0],
                va: &[0.0, -theta - 0.01],
                pg: &[0.5],
                qg: &[q_end],
            },
        )
        .unwrap();
        // ΔP ≈ cos θ · 0.01 / x ≈ 0.1 p.u. at both buses.
        assert!(cert.p_balance > 0.09, "{cert:?}");
        assert!(cert.max_violation() > 1e-3);
    }

    #[test]
    fn rating_and_bounds_are_checked() {
        let (mut case, theta, q_end) = two_bus();
        case.branches[0].rate_a = 40.0;
        case.generators[0].pmax = 45.0;
        let cert = certify(
            &case,
            Point {
                vm: &[1.0, 1.12],
                va: &[0.0, -theta],
                pg: &[0.5],
                qg: &[q_end],
            },
        )
        .unwrap();
        assert!(cert.line > 0.09, "{cert:?}");
        assert!((cert.gen_bounds - 0.05).abs() < 1e-12, "{cert:?}");
        assert!((cert.voltage - 0.02).abs() < 1e-12, "{cert:?}");
    }

    #[test]
    fn transformer_tap_and_shift_match_the_pi_model() {
        // Lossless transformer, tap 1.05 and 10° shift, flat voltages: the
        // from-side flow is V_f conj(Y_ff V_f + Y_ft V_t) worked by hand.
        let (mut case, _, _) = two_bus();
        case.branches[0].tap = 1.05;
        case.branches[0].shift = 10.0;
        case.branches[0].rate_a = 0.0;
        case.buses[1].pd = 0.0;
        case.buses[1].qd = 0.0;
        let (t, phi) = (1.05f64, 10f64.to_radians());
        // ys = −j10; Y_ff = −j10/t²; Y_ft = j10·e^{jφ}/t.
        let p_f = -10.0 * phi.sin() / t;
        let q_f = 10.0 / (t * t) - 10.0 * phi.cos() / t;
        let cert = certify(
            &case,
            Point {
                vm: &[1.0, 1.0],
                va: &[0.0, 0.0],
                pg: &[p_f],
                qg: &[q_f],
            },
        )
        .unwrap();
        // Generator output matches the from-side flow exactly; the to bus
        // carries the opposite real power and its own reactive draw.
        let inj_to_p = 10.0 * phi.sin() / t;
        assert!((cert.p_balance - inj_to_p.abs()).abs() < 1e-12, "{cert:?}");
    }
}
