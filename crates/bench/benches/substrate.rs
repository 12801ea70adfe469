//! Substrate micro-benchmarks: the building blocks every service rides
//! on — class-file parse/serialize, bytecode decode/encode, interpreter
//! throughput, and MD5.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dvm_bytecode::Code;
use dvm_classfile::ClassFile;
use dvm_jvm::{MapProvider, Vm};
use dvm_proxy::md5::md5;
use dvm_workload::{figure5_apps, generate};

fn sample() -> (Vec<ClassFile>, Vec<Vec<u8>>) {
    let spec = figure5_apps().remove(0).scaled(1, 20000);
    let classes = generate(&spec).classes;
    let bytes = classes
        .iter()
        .map(|c| c.clone().to_bytes().unwrap())
        .collect();
    (classes, bytes)
}

fn bench_classfile(c: &mut Criterion) {
    let (classes, bytes) = sample();
    let total: usize = bytes.iter().map(Vec::len).sum();
    let mut group = c.benchmark_group("classfile");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(total as u64));
    group.bench_function("parse", |b| {
        b.iter(|| {
            for raw in &bytes {
                std::hint::black_box(ClassFile::parse(raw).unwrap());
            }
        });
    });
    group.bench_function("serialize", |b| {
        b.iter(|| {
            for cf in &classes {
                std::hint::black_box(cf.clone().to_bytes().unwrap());
            }
        });
    });
    group.finish();
}

fn bench_bytecode(c: &mut Criterion) {
    let (classes, _) = sample();
    let mut group = c.benchmark_group("bytecode");
    group.sample_size(20);
    group.bench_function("decode_encode", |b| {
        b.iter(|| {
            for cf in &classes {
                for m in &cf.methods {
                    if let Some(attr) = m.code() {
                        let code = Code::decode(attr).unwrap();
                        std::hint::black_box(code.encode(&cf.pool).unwrap());
                    }
                }
            }
        });
    });
    group.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let spec = figure5_apps().remove(0).scaled(1, 2000);
    let app = generate(&spec);
    let mut group = c.benchmark_group("interpreter");
    group.sample_size(10);
    group.bench_function("jlex_scaled", |b| {
        b.iter(|| {
            let mut provider = MapProvider::new();
            for cf in &app.classes {
                let mut cf = cf.clone();
                provider.insert_class(&mut cf).unwrap();
            }
            let mut vm = Vm::new(Box::new(provider)).unwrap();
            std::hint::black_box(vm.run_main(&app.main_class).unwrap());
        });
    });
    group.finish();
}

fn bench_md5(c: &mut Criterion) {
    let data = vec![0xA5u8; 64 * 1024];
    let mut group = c.benchmark_group("md5");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("64KiB", |b| b.iter(|| std::hint::black_box(md5(&data))));
    group.finish();
}

criterion_group!(
    benches,
    bench_classfile,
    bench_bytecode,
    bench_interpreter,
    bench_md5
);
criterion_main!(benches);
