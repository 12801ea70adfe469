//! The virtual machine: loading, initialization, and runtime state.

use std::collections::HashMap;

use dvm_classfile::ClassFile;
use dvm_exec::ClassIr;

use crate::classes::{ClassProvider, InitState, Registry};
use crate::error::{Result, VmError};
use crate::exec::ExecTier;
use crate::heap::{ClassId, Heap, HeapObject, HeapRef};
use crate::hooks::{BuiltinChecks, DynamicServices, NoServices};
use crate::natives::NativeRegistry;
use crate::value::Value;

/// Default heap limit (64 MB, matching the paper's test machines).
pub const DEFAULT_HEAP_LIMIT: usize = 64 << 20;

/// Execution statistics maintained by the VM.
#[derive(Debug, Default, Clone)]
pub struct VmStats {
    /// Bytecode instructions executed.
    pub instructions: u64,
    /// Simulated CPU cycles consumed (instruction cost model plus service
    /// hook costs).
    pub cycles: u64,
    /// Method invocations (interpreted and native).
    pub invocations: u64,
    /// Objects allocated.
    pub allocations: u64,
    /// Runtime link checks executed by `dvm/rt/RTVerifier` (the dynamic
    /// half of Figure 8).
    pub dynamic_verify_checks: u64,
    /// Access checks routed through `dvm/rt/Enforcer`.
    pub security_checks: u64,
    /// Classes loaded, with their class-file sizes, in load order.
    pub classes_loaded: Vec<(String, usize)>,
    /// Exceptions thrown (including internally-raised runtime exceptions).
    pub exceptions_thrown: u64,
}

impl VmStats {
    /// Total bytes of class files loaded.
    pub fn bytes_loaded(&self) -> usize {
        self.classes_loaded.iter().map(|(_, b)| *b).sum()
    }
}

/// One entry in the virtual file system backing the `java/io` natives.
#[derive(Debug, Clone)]
pub struct VfsFile {
    /// File contents.
    pub data: Vec<u8>,
}

/// The virtual machine.
///
/// A `Vm` owns the heap, class registry, native registry, a class provider
/// (local map or, in the DVM configuration, a network fetch path), the
/// dynamic-service hooks, and a small virtual environment (stdout,
/// properties, files) so benchmark workloads can run hermetically.
pub struct Vm {
    /// Loaded classes.
    pub registry: Registry,
    /// The object heap.
    pub heap: Heap,
    /// Native method implementations.
    pub natives: NativeRegistry,
    /// Dynamic service components (enforcement manager, audit stub, ...).
    pub services: Box<dyn DynamicServices>,
    provider: Box<dyn ClassProvider>,
    /// Interned string literals.
    interned: HashMap<String, HeapRef>,
    /// Captured output of `System.out`.
    pub stdout: Vec<String>,
    /// System properties served by `System.getProperty`.
    pub properties: HashMap<String, String>,
    /// Virtual file system for the `java/io` natives.
    pub vfs: HashMap<String, VfsFile>,
    /// Open file handles: `(path, position)`.
    pub open_files: Vec<Option<(String, usize)>>,
    /// Execution statistics.
    pub stats: VmStats,
    /// Remaining instruction budget, if limited.
    pub fuel: Option<u64>,
    /// Audit/profile site names registered by instrumentation metadata.
    pub site_names: HashMap<i32, String>,
    /// Monolithic-model security check costs hardwired into library
    /// natives (all `None` for DVM clients).
    pub builtin_checks: BuiltinChecks,
    /// The optimizing execution tier: compiled-IR methods and per-tier
    /// dispatch counters.
    pub exec: ExecTier,
    /// References published by suspended compiled-IR activations (and by
    /// interpreter frames around cross-tier calls) so the collector can
    /// see them; see `crate::exec`.
    pub exec_roots: Vec<HeapRef>,
    loading: Vec<String>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("classes", &self.registry.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Vm {
    /// Creates a VM with the given class provider and default hooks.
    ///
    /// Bootstrap classes are linked immediately; `System.out`/`err` are
    /// wired to the capture buffer.
    pub fn new(provider: Box<dyn ClassProvider>) -> Result<Vm> {
        Vm::with_services(provider, Box::new(NoServices))
    }

    /// Creates a VM with explicit dynamic-service hooks.
    pub fn with_services(
        provider: Box<dyn ClassProvider>,
        services: Box<dyn DynamicServices>,
    ) -> Result<Vm> {
        let mut vm = Vm {
            registry: Registry::new(),
            heap: Heap::new(DEFAULT_HEAP_LIMIT),
            natives: NativeRegistry::with_builtins(),
            services,
            provider,
            interned: HashMap::new(),
            stdout: Vec::new(),
            properties: default_properties(),
            vfs: HashMap::new(),
            open_files: Vec::new(),
            stats: VmStats::default(),
            fuel: None,
            site_names: HashMap::new(),
            builtin_checks: BuiltinChecks::default(),
            exec: ExecTier::new(),
            exec_roots: Vec::new(),
            loading: Vec::new(),
        };
        for cf in crate::bootstrap::bootstrap_classes() {
            // Bootstrap classes are resident, not fetched: record no bytes.
            vm.registry.link(&cf, 0)?;
        }
        // Wire System.out / System.err.
        let ps_class = vm
            .registry
            .id_of("java/io/PrintStream")
            .ok_or_else(|| VmError::ClassNotFound("java/io/PrintStream".into()))?;
        let out = vm.alloc_instance(ps_class)?;
        let err = vm.alloc_instance(ps_class)?;
        vm.set_static("java/lang/System", "out", Value::Ref(Some(out)))?;
        vm.set_static("java/lang/System", "err", Value::Ref(Some(err)))?;
        Ok(vm)
    }

    /// Registers a file in the virtual file system.
    pub fn add_file(&mut self, path: &str, data: Vec<u8>) {
        self.vfs.insert(path.to_owned(), VfsFile { data });
    }

    /// Ensures `name` is loaded and linked, loading supertypes first.
    pub fn load_class(&mut self, name: &str) -> Result<ClassId> {
        if let Some(id) = self.registry.id_of(name) {
            return Ok(id);
        }
        if self.loading.iter().any(|n| n == name) {
            return Err(VmError::LinkError {
                class: name.to_owned(),
                reason: "circular class hierarchy".into(),
            });
        }
        self.services.flush();
        let bytes = self
            .provider
            .load(name)
            .ok_or_else(|| VmError::ClassNotFound(name.to_owned()))?;
        let size = bytes.len();
        let cf = ClassFile::parse(&bytes)?;
        let declared = cf.name()?.to_owned();
        if declared != name {
            return Err(VmError::LinkError {
                class: name.to_owned(),
                reason: format!("provider returned class {declared}"),
            });
        }
        self.loading.push(name.to_owned());
        let result = (|| -> Result<ClassId> {
            if let Some(sup) = cf.super_name()? {
                let sup = sup.to_owned();
                self.load_class(&sup)?;
            }
            let ifaces: Vec<String> = cf
                .interface_names()?
                .into_iter()
                .map(str::to_owned)
                .collect();
            for iface in ifaces {
                self.load_class(&iface)?;
            }
            self.registry.link(&cf, size)
        })();
        self.loading.pop();
        let id = result?;
        self.stats.classes_loaded.push((name.to_owned(), size));
        self.bind_exec_ir(id);
        Ok(id)
    }

    /// Installs compiled IR for a class, binding immediately when the
    /// class is already linked and deferring otherwise (the tier binds
    /// pending IR when the class loads).
    pub fn install_ir(&mut self, ir: ClassIr) {
        match self.registry.id_of(&ir.class) {
            Some(id) => self.bind_exec_ir_class(id, ir),
            None => self.exec.offer(ir),
        }
    }

    /// Binds any pending compiled IR for a freshly-linked class.
    fn bind_exec_ir(&mut self, id: ClassId) {
        let name = self.registry.get(id).name.clone();
        if let Some(ir) = self.exec.take_pending(&name) {
            self.bind_exec_ir_class(id, ir);
        }
    }

    fn bind_exec_ir_class(&mut self, id: ClassId, ir: ClassIr) {
        let mut installed = 0u64;
        for func in ir.methods {
            let idx = {
                let rc = self.registry.get(id);
                rc.method_index
                    .get(&(func.name.clone(), func.descriptor.clone()))
                    .copied()
                    // Never shadow native or abstract methods.
                    .filter(|&i| rc.methods[i].code.is_some())
            };
            if let Some(idx) = idx {
                self.exec.install(id, idx, func);
                installed += 1;
            }
        }
        if installed > 0 {
            self.exec.stats.installed_classes += 1;
        }
    }

    /// Allocates a zero-initialized instance of `class`.
    pub fn alloc_instance(&mut self, class: ClassId) -> Result<HeapRef> {
        let fields = self
            .registry
            .get(class)
            .instance_layout
            .iter()
            .map(|s| Value::default_for(&s.descriptor))
            .collect();
        self.stats.allocations += 1;
        self.heap.alloc(HeapObject::Instance { class, fields })
    }

    /// Interns a string literal, returning its heap reference.
    pub fn intern_string(&mut self, s: &str) -> Result<HeapRef> {
        if let Some(&r) = self.interned.get(s) {
            return Ok(r);
        }
        let r = self.heap.alloc(HeapObject::Str(s.to_owned()))?;
        self.interned.insert(s.to_owned(), r);
        Ok(r)
    }

    /// Allocates a (non-interned) string.
    pub fn new_string(&mut self, s: String) -> Result<HeapRef> {
        self.stats.allocations += 1;
        self.heap.alloc(HeapObject::Str(s))
    }

    /// Reads a heap string.
    pub fn get_string(&self, r: HeapRef) -> Result<&str> {
        match self.heap.get(r)? {
            HeapObject::Str(s) => Ok(s),
            other => Err(VmError::BadCode(format!(
                "expected string, found {other:?}"
            ))),
        }
    }

    /// Returns the runtime class of a heap object.
    pub fn class_of(&self, r: HeapRef) -> Result<ClassId> {
        match self.heap.get(r)? {
            HeapObject::Instance { class, .. } => Ok(*class),
            HeapObject::Str(_) => self
                .registry
                .id_of("java/lang/String")
                .ok_or_else(|| VmError::ClassNotFound("java/lang/String".into())),
            HeapObject::Array(_) => self
                .registry
                .id_of("java/lang/Object")
                .ok_or_else(|| VmError::ClassNotFound("java/lang/Object".into())),
        }
    }

    /// Sets a static field by class and field name.
    pub fn set_static(&mut self, class: &str, field: &str, value: Value) -> Result<()> {
        let id = self
            .registry
            .id_of(class)
            .ok_or_else(|| VmError::ClassNotFound(class.to_owned()))?;
        let (decl, off) =
            self.registry
                .resolve_static(id, field)
                .ok_or_else(|| VmError::NoSuchMember {
                    class: class.to_owned(),
                    name: field.to_owned(),
                    descriptor: "<static>".to_owned(),
                })?;
        self.registry.get_mut(decl).statics[off] = value;
        Ok(())
    }

    /// Reads a static field by class and field name.
    pub fn get_static(&self, class: &str, field: &str) -> Result<Value> {
        let id = self
            .registry
            .id_of(class)
            .ok_or_else(|| VmError::ClassNotFound(class.to_owned()))?;
        let (decl, off) =
            self.registry
                .resolve_static(id, field)
                .ok_or_else(|| VmError::NoSuchMember {
                    class: class.to_owned(),
                    name: field.to_owned(),
                    descriptor: "<static>".to_owned(),
                })?;
        Ok(self.registry.get(decl).statics[off])
    }

    /// Creates an exception instance of `class_name` with `message`,
    /// loading the class if necessary.
    pub fn make_exception(&mut self, class_name: &str, message: &str) -> Result<HeapRef> {
        let class = self.load_class(class_name)?;
        let r = self.alloc_instance(class)?;
        let msg = self.new_string(message.to_owned())?;
        // Throwable's `message` is the first field in every throwable
        // layout (Throwable declares it first).
        if let HeapObject::Instance { fields, .. } = self.heap.get_mut(r)? {
            if let Some(slot) = fields.get_mut(0) {
                *slot = Value::Ref(Some(msg));
            }
        }
        self.stats.exceptions_thrown += 1;
        Ok(r)
    }

    /// Reads a throwable's message for diagnostics.
    pub fn exception_message(&self, r: HeapRef) -> Option<(String, String)> {
        let class = self.class_of(r).ok()?;
        let name = self.registry.get(class).name.clone();
        let msg = match self.heap.get(r).ok()? {
            HeapObject::Instance { fields, .. } => match fields.first() {
                Some(Value::Ref(Some(m))) => self.get_string(*m).ok()?.to_owned(),
                _ => String::new(),
            },
            _ => String::new(),
        };
        Some((name, msg))
    }

    /// Returns GC roots contributed by VM-global state (statics, interned
    /// strings, open streams).
    pub fn global_roots(&self) -> Vec<HeapRef> {
        let mut roots: Vec<HeapRef> = self.interned.values().copied().collect();
        roots.extend_from_slice(&self.exec_roots);
        for (_, class) in self.registry.iter() {
            for v in &class.statics {
                if let Value::Ref(Some(r)) = v {
                    roots.push(*r);
                }
            }
        }
        roots
    }

    /// Marks a class initialization state.
    pub fn set_init_state(&mut self, class: ClassId, state: InitState) {
        self.registry.get_mut(class).init_state = state;
    }
}

fn default_properties() -> HashMap<String, String> {
    let mut p = HashMap::new();
    p.insert("java.version".into(), "1.2".into());
    p.insert("java.vendor".into(), "DVM reproduction".into());
    p.insert("os.name".into(), "SimOS".into());
    p.insert("os.arch".into(), "x86".into());
    p.insert("user.name".into(), "dvm".into());
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::MapProvider;

    #[test]
    fn bootstrap_links_and_wires_system_out() {
        let vm = Vm::new(Box::new(MapProvider::new())).unwrap();
        assert!(vm.registry.len() > 25);
        let out = vm.get_static("java/lang/System", "out").unwrap();
        assert!(matches!(out, Value::Ref(Some(_))));
    }

    #[test]
    fn missing_class_reports_name() {
        let mut vm = Vm::new(Box::new(MapProvider::new())).unwrap();
        match vm.load_class("does/not/Exist") {
            Err(VmError::ClassNotFound(n)) => assert_eq!(n, "does/not/Exist"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn string_interning_dedupes() {
        let mut vm = Vm::new(Box::new(MapProvider::new())).unwrap();
        let a = vm.intern_string("x").unwrap();
        let b = vm.intern_string("x").unwrap();
        assert_eq!(a, b);
        let c = vm.new_string("x".into()).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn exceptions_carry_class_and_message() {
        let mut vm = Vm::new(Box::new(MapProvider::new())).unwrap();
        let e = vm
            .make_exception("java/lang/NullPointerException", "boom")
            .unwrap();
        let (class, msg) = vm.exception_message(e).unwrap();
        assert_eq!(class, "java/lang/NullPointerException");
        assert_eq!(msg, "boom");
    }

    #[test]
    fn load_class_records_transfer_stats() {
        let mut provider = MapProvider::new();
        let mut cf = dvm_classfile::ClassBuilder::new("demo/T").build();
        provider.insert_class(&mut cf).unwrap();
        let mut vm = Vm::new(Box::new(provider)).unwrap();
        vm.load_class("demo/T").unwrap();
        assert_eq!(vm.stats.classes_loaded.len(), 1);
        assert_eq!(vm.stats.classes_loaded[0].0, "demo/T");
        assert!(vm.stats.classes_loaded[0].1 > 0);
    }

    #[test]
    fn services_flush_before_every_fetch_that_reaches_the_provider() {
        use std::sync::{Arc, Mutex};
        type Log = Arc<Mutex<Vec<String>>>;
        struct Logged<T>(T, Log);
        impl ClassProvider for Logged<MapProvider> {
            fn load(&mut self, name: &str) -> Option<Vec<u8>> {
                self.1.lock().unwrap().push(format!("load {name}"));
                self.0.load(name)
            }
        }
        impl DynamicServices for Logged<()> {
            fn flush(&mut self) {
                self.1.lock().unwrap().push("flush".into());
            }
        }
        let log = Log::default();
        let mut provider = MapProvider::new();
        let mut cf = dvm_classfile::ClassBuilder::new("demo/T").build();
        provider.insert_class(&mut cf).unwrap();
        let mut vm = Vm::with_services(
            Box::new(Logged(provider, log.clone())),
            Box::new(Logged((), log.clone())),
        )
        .unwrap();
        vm.load_class("demo/T").unwrap();
        vm.load_class("demo/T").unwrap(); // already linked: no fetch
        assert_eq!(*log.lock().unwrap(), ["flush", "load demo/T"]);
    }
}
