//! Runs the design-choice ablations (transports, NIC generations, EREW,
//! parameter selection). With a directory argument, each is also
//! written to `<dir>/<name>.csv`.

use std::path::PathBuf;

fn main() {
    let dir = std::env::args_os().nth(1).map(PathBuf::from);
    rfp_bench::print_tables(rfp_bench::ablations::ABLATIONS, dir.as_deref()).expect("write tables");
}
