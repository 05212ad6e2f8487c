//! Heap-access site classification and the barrier table.
//!
//! The paper's JIT represents non-transactional barriers as annotations on
//! memory accesses (§6). [`BarrierTable`] is that annotation table: for each
//! [`SiteId`] it records what the interpreter must do when the site executes
//! *outside* a transaction. The whole-program passes
//! (`tmir_analysis::nait`, `tmir_analysis::thread_local`) start from
//! [`BarrierTable::strong`] and remove barriers; [`crate::compile()`] bakes
//! the table into barrier opcodes, which the §6 passes in
//! [`crate::bytecode`] rewrite.

use crate::ast::*;
use std::collections::HashMap;

/// What a heap access executes when reached outside a transaction.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum BarrierKind {
    /// Direct memory access (barrier removed, or weak atomicity).
    #[default]
    None,
    /// Read isolation barrier (paper Figure 9(a)/10(a)).
    Read,
    /// Write isolation barrier (paper Figure 9(b)/10(b)).
    Write,
}

/// The kind of heap access a site performs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Access {
    /// Field / static / array load.
    Load,
    /// Field / static / array store.
    Store,
    /// Allocation (`new` / `new_array`) — never barriered.
    Alloc,
}

/// Static facts about one site.
#[derive(Clone, Debug)]
pub struct SiteInfo {
    /// The site.
    pub id: SiteId,
    /// Load, store, or allocation.
    pub access: Access,
    /// Whether the site is lexically inside an `atomic` block.
    pub lexically_atomic: bool,
    /// Enclosing function.
    pub func: String,
    /// For field accesses: whether the field is declared `final`.
    pub final_field: bool,
    /// Whether the site accesses a static variable.
    pub is_static: bool,
}

/// Collects [`SiteInfo`] for every site in the program.
///
/// # Panics
/// Panics if the program contains a site id outside `0..num_sites`
/// (indicates a parser bug).
pub fn classify(program: &Program) -> Vec<SiteInfo> {
    let mut infos: Vec<Option<SiteInfo>> = vec![None; program.num_sites as usize];
    for func in &program.funcs {
        collect_block(program, &func.name, &func.body, false, &mut infos);
    }
    infos
        .into_iter()
        .flatten()
        .collect()
}

fn field_is_final(program: &Program, class: &str, field: &str) -> bool {
    program
        .class(class)
        .and_then(|c| c.fields.iter().find(|f| f.name == field))
        .map(|f| f.is_final)
        .unwrap_or(false)
}

fn collect_block(
    program: &Program,
    func: &str,
    body: &[Stmt],
    in_atomic: bool,
    infos: &mut [Option<SiteInfo>],
) {
    for stmt in body {
        collect_stmt(program, func, stmt, in_atomic, infos);
    }
}

fn collect_stmt(
    program: &Program,
    func: &str,
    stmt: &Stmt,
    in_atomic: bool,
    infos: &mut [Option<SiteInfo>],
) {
    let mut add = |id: SiteId, access: Access, final_field: bool, is_static: bool| {
        infos[id.0 as usize] = Some(SiteInfo {
            id,
            access,
            lexically_atomic: in_atomic,
            func: func.to_string(),
            final_field,
            is_static,
        });
    };

    // Expression sites (loads + allocs). We cannot know the static class of
    // a field expression without types here, so finality is resolved by the
    // helper below using the program's class table via a best-effort name
    // match: TMIR field names are unique per class but a field expression
    // does not record its class. We therefore mark `final_field` only when
    // *every* class declaring that field name marks it final — sound for
    // barrier removal.
    let final_by_name = |field: &str| {
        let declaring: Vec<_> = program
            .classes
            .iter()
            .filter(|c| c.field_index(field).is_some())
            .collect();
        !declaring.is_empty() && declaring.iter().all(|c| field_is_final(program, &c.name, field))
    };

    let mut visit_expr = |e: &Expr| match e {
        Expr::Field { field, site, .. } => add(*site, Access::Load, final_by_name(field), false),
        Expr::Static { site, .. } => add(*site, Access::Load, false, true),
        Expr::Index { site, .. } => add(*site, Access::Load, false, false),
        Expr::New { site, .. } | Expr::NewArray { site, .. } => {
            add(*site, Access::Alloc, false, false)
        }
        _ => {}
    };
    walk_exprs(stmt, &mut visit_expr);

    // Store sites.
    if let Stmt::Assign { place, .. } = stmt {
        match place {
            Place::Field { field, site, .. } => {
                add(*site, Access::Store, final_by_name(field), false)
            }
            Place::Static { site, .. } => add(*site, Access::Store, false, true),
            Place::Index { site, .. } => add(*site, Access::Store, false, false),
            Place::Local(_) => {}
        }
    }

    // Recurse into nested blocks with the right atomicity flag.
    match stmt {
        Stmt::If { then_body, else_body, .. } => {
            collect_block(program, func, then_body, in_atomic, infos);
            collect_block(program, func, else_body, in_atomic, infos);
        }
        Stmt::While { body, .. } => collect_block(program, func, body, in_atomic, infos),
        Stmt::Atomic { body } => collect_block(program, func, body, true, infos),
        Stmt::Lock { body, .. } => collect_block(program, func, body, in_atomic, infos),
        _ => {}
    }
}

/// Per-site barrier decisions for non-transactional execution.
#[derive(Clone, Debug, Default)]
pub struct BarrierTable {
    kinds: HashMap<SiteId, BarrierKind>,
}

impl BarrierTable {
    /// Weak atomicity: no barriers anywhere.
    pub fn weak() -> Self {
        BarrierTable::default()
    }

    /// Strong atomicity before any optimization: every load gets a read
    /// barrier, every store a write barrier (allocations never need one).
    pub fn strong(program: &Program) -> Self {
        let mut t = BarrierTable::default();
        for info in classify(program) {
            match info.access {
                Access::Load => t.set(info.id, BarrierKind::Read),
                Access::Store => t.set(info.id, BarrierKind::Write),
                Access::Alloc => {}
            }
        }
        t
    }

    /// The barrier executed at `site` outside transactions.
    #[inline]
    pub fn kind(&self, site: SiteId) -> BarrierKind {
        self.kinds.get(&site).copied().unwrap_or(BarrierKind::None)
    }

    /// Sets the barrier for a site.
    pub fn set(&mut self, site: SiteId, kind: BarrierKind) {
        if kind == BarrierKind::None {
            self.kinds.remove(&site);
        } else {
            self.kinds.insert(site, kind);
        }
    }

    /// Removes the barrier at `site`, returning what was there.
    pub fn remove(&mut self, site: SiteId) -> BarrierKind {
        self.kinds.remove(&site).unwrap_or(BarrierKind::None)
    }

    /// Number of sites with barriers, split (reads, writes).
    pub fn counts(&self) -> (usize, usize) {
        let reads = self.kinds.values().filter(|k| **k == BarrierKind::Read).count();
        let writes = self.kinds.values().filter(|k| **k == BarrierKind::Write).count();
        (reads, writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::types::check;

    fn prog(src: &str) -> Program {
        check(parse(src).unwrap()).unwrap().program
    }

    #[test]
    fn classify_finds_all_sites() {
        let p = prog(
            "class C { x: int, final id: int }\n\
             static g: int;\n\
             fn main() {\n\
               let c: ref C = new C;\n\
               c.x = c.x + 1;\n\
               atomic { g = c.id; }\n\
             }",
        );
        let infos = classify(&p);
        assert_eq!(infos.len(), p.num_sites as usize);
        let allocs = infos.iter().filter(|i| i.access == Access::Alloc).count();
        assert_eq!(allocs, 1);
        let atomic_sites = infos.iter().filter(|i| i.lexically_atomic).count();
        assert_eq!(atomic_sites, 2, "static store + final load inside atomic");
        assert!(infos.iter().any(|i| i.final_field && i.access == Access::Load));
        assert!(infos.iter().any(|i| i.is_static));
    }

    #[test]
    fn strong_table_barriers_everything_but_allocs() {
        let p = prog(
            "class C { x: int }\n\
             fn main() { let c: ref C = new C; c.x = c.x + 2; }",
        );
        let t = BarrierTable::strong(&p);
        let (reads, writes) = t.counts();
        assert_eq!((reads, writes), (1, 1));
    }

    #[test]
    fn weak_table_is_empty() {
        let p = prog("class C { x: int } fn main() { let c: ref C = new C; c.x = 1; }");
        let t = BarrierTable::weak();
        let infos = classify(&p);
        for i in &infos {
            assert_eq!(t.kind(i.id), BarrierKind::None);
        }
    }

    #[test]
    fn set_and_remove() {
        let mut t = BarrierTable::weak();
        t.set(SiteId(3), BarrierKind::Write);
        assert_eq!(t.kind(SiteId(3)), BarrierKind::Write);
        assert_eq!(t.remove(SiteId(3)), BarrierKind::Write);
        assert_eq!(t.kind(SiteId(3)), BarrierKind::None);
    }
}
