//! Fixture: a threaded physical operator — no `_opts` suffix, but it
//! takes an `ExecOptions`, so its oracle proptest must pin threads 1 and 4.

pub fn blend<A: AggAnnotation>(rel: &MKRel<A>, opts: &ExecOptions) -> Result<MKRel<A>> {
    sharded(rel, opts)
}
