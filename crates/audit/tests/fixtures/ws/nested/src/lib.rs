// Would be a nondeterminism violation if the audit walked into this
// nested workspace; it must not.

pub fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now()
}
