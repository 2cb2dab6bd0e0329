//! §5 "Water Conditions" ablation: how temperature, salinity, and depth
//! shape the attack's reach, plus the attacker-power comparison.
//!
//! Run with: `cargo run --release -p deepnote-core --example water_conditions`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_core::experiments::ablations;
use deepnote_core::report;

fn main() {
    println!("== water conditions vs attack reach ==\n");
    print!("{}", report::render_water(&ablations::water_conditions()));

    println!("\n== attacker power vs open-water reach ==\n");
    print!("{}", report::render_power(&ablations::attacker_power()));

    println!("\n== enclosure materials ==\n");
    print!("{}", report::render_materials(&ablations::materials()));

    println!("\n== off-track tolerance sensitivity ==\n");
    print!(
        "{}",
        report::render_tolerance(&ablations::tolerance_sensitivity())
    );

    println!("\n== tone vs band noise at equal power ==\n");
    print!(
        "{}",
        report::render_noise_vs_tone(&ablations::noise_vs_tone())
    );
    println!("\nconcentrating power at the resonance is what makes the paper's");
    println!("sine sweep effective; spreading the same energy across the band");
    println!("dilutes the displacement below the fault thresholds.");

    println!("\n== attacker depth vs reach (Lloyd mirror, Natick at 36 m) ==\n");
    print!("{}", report::render_depth(&ablations::attacker_depth()));
    println!("\nthe phase-inverted surface reflection cancels low frequencies for");
    println!("shallow sources: attacking a deep data center from a surface vessel");
    println!("costs an order of magnitude in range — the attacker must dive.");

    println!("\n== seasonal resonance drift (probe at 10 cm) ==\n");
    print!("{}", report::render_seasons(&ablations::seasonal_drift()));
    println!("\na frequency tuned in the paper's 21°C tank drifts with the seasons;");
    println!("the attacker must re-sweep, and a defender watching for sweeps gains");
    println!("a recurring detection opportunity.");
}
