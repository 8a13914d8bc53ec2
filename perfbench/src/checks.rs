//! Output checks. A run whose checks fail prints `correct: false`, names
//! each failed check, and exits non-zero.

pub struct Checks {
    items: Vec<(&'static str, bool, String)>,
}

impl Checks {
    pub fn new() -> Checks {
        Checks { items: Vec::new() }
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.items.push((name, ok, detail));
    }

    pub fn all_passed(&self) -> bool {
        self.items.iter().all(|(_, ok, _)| *ok)
    }

    pub fn print(&self) {
        for (name, ok, detail) in &self.items {
            let verdict = if *ok { "PASS" } else { "FAIL" };
            println!("check {name} {verdict} ({detail})");
            if !ok {
                eprintln!("check failed: {name}: {detail}");
            }
        }
    }
}
