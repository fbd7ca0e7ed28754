//! `mpr` — the command-line front end of the mixed-precision reliability
//! study. Run `mpr help` for usage.

mod args;
mod commands;
mod profile;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match args::parse(&argv) {
        Ok(command) => commands::run(command),
        // Usage errors exit 1; 2 is kept for unsupported configurations
        // and 3 for failed cells (see `commands`).
        Err(e) => {
            eprintln!("{e}");
            1
        }
    };
    std::process::exit(code);
}
