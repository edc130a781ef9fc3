//! Experiment E8: the poly-size-overhead desideratum at runtime — time (and
//! size, in `tables` T7) of symbolic evaluation for simple and nested
//! aggregation queries as the input grows.

use aggprov_algebra::monoid::MonoidKind;
use aggprov_core::ops::{group_by, select_eq, AggSpec};
use aggprov_core::par::ExecOptions;
use aggprov_core::Value;
use aggprov_workloads::org::{org, OrgParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("symbolic_overhead");
    group.sample_size(10);
    for per_dept in [20usize, 40, 80, 160] {
        let workload = org(OrgParams {
            departments: 10,
            employees_per_dept: per_dept,
            ..Default::default()
        });
        let n = 10 * per_dept;
        group.bench_with_input(
            BenchmarkId::new("group_by_sum", n),
            &workload.emp,
            |b, emp| {
                b.iter(|| {
                    group_by(
                        emp,
                        &["dept"],
                        &[AggSpec::new(MonoidKind::Sum, "sal")],
                        &ExecOptions::serial(),
                    )
                    .expect("group by")
                });
            },
        );
        let grouped = group_by(
            &workload.emp,
            &["dept"],
            &[AggSpec::new(MonoidKind::Sum, "sal")],
            &ExecOptions::serial(),
        )
        .expect("group by");
        group.bench_with_input(
            BenchmarkId::new("nested_having", n),
            &grouped,
            |b, grouped| {
                b.iter(|| select_eq(grouped, "sal", &Value::int(1000)).expect("having"));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
