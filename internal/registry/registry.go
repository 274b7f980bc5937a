// Package registry is a concurrent, versioned store of trained tuning
// models — the serving-side realization of the paper's central claim that
// models are reusable artifacts. Each model is published under a name
// (conventionally app/kernel-group plus the predicted parameter, e.g.
// "lulesh/execution_policy") and receives a monotonically increasing
// version. Publishes swap one atomic pointer, so readers — the HTTP
// serving layer answering prediction and fetch traffic — never block and
// always observe a fully formed entry.
//
// A registry may be disk-backed: every publish persists a versioned
// envelope file under the registry directory, the highest version per
// name is loaded back at open, and a polling watcher hot-reloads files
// that appear or change on disk (an operator can drop a retrained model
// into the directory and every connected tuner picks it up).
package registry

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apollo/internal/core"
)

// Entry is one published model version. Entries are immutable: a
// republish creates a new entry at a higher version.
type Entry struct {
	// Name is the registry key the model was published under.
	Name string
	// Version is the monotonic publish counter for the name.
	Version int
	// ETag is a content hash of Raw, quoted for direct use in HTTP
	// ETag / If-None-Match headers.
	ETag string
	// SchemaHash fingerprints the model's prediction contract.
	SchemaHash string
	// Model is the deserialized model, ready to evaluate.
	Model *core.Model
	// Lineage is the provenance block stamped at train time (nil for
	// hand-published or legacy models). It rides inside Raw, so it
	// survives persistence, sync-pull, and client fetch unchanged.
	Lineage *core.Lineage
	// Raw is the canonical envelope JSON as persisted and served.
	Raw []byte
}

// Registry is the store. Reads are lock-free (one atomic map load plus
// one atomic entry load); publishes serialize on a mutex.
type Registry struct {
	dir string // "" = memory-only

	// mu guards publishes and the byName map identity.
	mu      sync.Mutex //apollo:lockrank 30
	byName  atomic.Pointer[map[string]*atomic.Pointer[Entry]]
	watched map[string]fileState // path -> last seen state, used by the watcher
	logf    func(format string, args ...any)
}

// fileState identifies a disk file revision cheaply.
type fileState struct {
	modTime time.Time
	size    int64
}

// New returns an empty, memory-only registry.
func New() *Registry {
	r := &Registry{logf: func(string, ...any) {}}
	empty := map[string]*atomic.Pointer[Entry]{}
	r.byName.Store(&empty)
	r.watched = map[string]fileState{}
	return r
}

// SetLogf routes the watcher's skip diagnostics (corrupt model files,
// unreadable subtrees) somewhere visible. The default discards them.
func (r *Registry) SetLogf(logf func(format string, args ...any)) {
	if logf != nil {
		r.logf = logf
	}
}

// Open returns a registry persisted under dir, creating the directory if
// needed and loading the highest version of every model already present.
func Open(dir string) (*Registry, error) {
	r := New()
	r.dir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := r.scan(); err != nil {
		return nil, err
	}
	return r, nil
}

// Dir returns the backing directory ("" for a memory-only registry).
func (r *Registry) Dir() string { return r.dir }

// ValidateName checks a model name: slash-separated segments of
// [A-Za-z0-9._-], no empty or ".."/"." segments, at most 200 bytes. The
// slashes let names mirror the app/kernel-group hierarchy and map
// directly onto the registry's on-disk layout.
func ValidateName(name string) error {
	if name == "" || len(name) > 200 {
		return fmt.Errorf("registry: invalid model name %q", name)
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("registry: invalid model name %q", name)
		}
		for _, c := range seg {
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
				c == '.', c == '_', c == '-':
			default:
				return fmt.Errorf("registry: invalid character %q in model name %q", c, name)
			}
		}
	}
	return nil
}

// Get returns the current entry for name. It is lock-free and safe to
// call from any number of goroutines concurrently with publishes.
//
//apollo:hotpath
func (r *Registry) Get(name string) (*Entry, bool) {
	m := *r.byName.Load()
	p, ok := m[name]
	if !ok {
		return nil, false
	}
	e := p.Load()
	return e, e != nil
}

// Names returns the sorted registered model names.
func (r *Registry) Names() []string {
	m := *r.byName.Load()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered models.
func (r *Registry) Len() int { return len(*r.byName.Load()) }

// Publish registers a new version of the model under name, persisting it
// when the registry is disk-backed, and returns the new entry.
func (r *Registry) Publish(name string, m *core.Model) (*Entry, error) {
	return r.PublishLineage(name, m, nil)
}

// PublishLineage is Publish with a provenance block: lin (optional) is
// stamped into the persisted envelope, so the model's origin — parent
// version, training window, drift trigger, duel outcome, loop ID —
// travels with the artifact to every replica and client.
//
//apollo:lockok publishes are rare and intentionally serialized under r.mu so the disk and in-memory views can never diverge
func (r *Registry) PublishLineage(name string, m *core.Model, lin *core.Lineage) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.publishLocked(name, 0, m, lin)
}

// PublishRaw registers data, which must parse as a model or an envelope.
// An envelope's own version is honored when it is ahead of the current
// one (so watcher reloads keep file and registry versions aligned);
// otherwise the next monotonic version is assigned.
//
//apollo:lockok publishes are rare and intentionally serialized under r.mu so the disk and in-memory views can never diverge
func (r *Registry) PublishRaw(name string, data []byte) (*Entry, error) {
	env, err := core.ParseModelOrEnvelope(data)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.publishLocked(name, env.Version, env.Model, env.Lineage)
}

// publishLocked assigns max(wantVersion, current+1) and swaps the entry
// in. Callers hold r.mu.
func (r *Registry) publishLocked(name string, wantVersion int, m *core.Model, lin *core.Lineage) (*Entry, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if m == nil || m.Tree == nil || m.Schema == nil {
		return nil, fmt.Errorf("registry: publishing an incomplete model under %q", name)
	}
	version := wantVersion
	if cur, ok := r.Get(name); ok && version <= cur.Version {
		version = cur.Version + 1
	}
	if version < 1 {
		version = 1
	}
	// A structurally broken tree (missing children, out-of-range
	// features) must not be published at all.
	if err := m.Tree.Validate(); err != nil {
		return nil, fmt.Errorf("registry: publishing %q: %w", name, err)
	}
	env := core.WrapModel(name, version, m)
	env.Lineage = lin
	raw, err := env.MarshalJSON()
	if err != nil {
		return nil, err
	}
	raw = append(raw, '\n')
	e := &Entry{
		Name:       name,
		Version:    version,
		ETag:       contentETag(raw),
		SchemaHash: m.SchemaHash(),
		Model:      m,
		Lineage:    lin,
		Raw:        raw,
	}
	if r.dir != "" {
		path := r.versionPath(name, version)
		if err := writeFileAtomic(path, raw); err != nil {
			return nil, err
		}
		if st, err := os.Stat(path); err == nil {
			r.watched[path] = fileState{modTime: st.ModTime(), size: st.Size()}
		}
	}
	r.install(name, e)
	return e, nil
}

// install swaps the entry in, copying the name map only when the name is
// new (publishes of existing names touch just that name's pointer).
func (r *Registry) install(name string, e *Entry) {
	m := *r.byName.Load()
	if p, ok := m[name]; ok {
		p.Store(e)
		return
	}
	next := make(map[string]*atomic.Pointer[Entry], len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	p := &atomic.Pointer[Entry]{}
	p.Store(e)
	next[name] = p
	r.byName.Store(&next)
}

// versionPath is the on-disk location of one model version:
// <dir>/<name>.v<version>.json, with the name's slashes as directories.
func (r *Registry) versionPath(name string, version int) string {
	return filepath.Join(r.dir, filepath.FromSlash(name)+".v"+strconv.Itoa(version)+".json")
}

// parseVersionPath inverts versionPath, returning the model name and
// version of a registry file, or ok=false for unrelated files.
func (r *Registry) parseVersionPath(path string) (name string, version int, ok bool) {
	rel, err := filepath.Rel(r.dir, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", 0, false
	}
	rel = filepath.ToSlash(rel)
	if !strings.HasSuffix(rel, ".json") {
		return "", 0, false
	}
	stem := strings.TrimSuffix(rel, ".json")
	i := strings.LastIndex(stem, ".v")
	if i <= 0 {
		return "", 0, false
	}
	v, err := strconv.Atoi(stem[i+2:])
	if err != nil || v < 0 {
		return "", 0, false
	}
	name = stem[:i]
	if ValidateName(name) != nil {
		return "", 0, false
	}
	return name, v, true
}

// scan walks the registry directory and loads every new or changed model
// file, returning how many entries it (re)published. At open it sees all
// files as new and loads the highest version per name; afterwards the
// watcher calls it to hot-reload external changes.
func (r *Registry) scan() (int, error) {
	if r.dir == "" {
		return 0, nil
	}
	type found struct {
		path    string
		name    string
		version int
		state   fileState
	}
	var changed []found
	err := filepath.Walk(r.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			// One unreadable file or subtree must not stop the whole
			// registry from reloading: log it and keep walking.
			r.logf("registry: skipping %s: %v", path, err)
			if info != nil && info.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if info.IsDir() {
			return nil
		}
		name, version, ok := r.parseVersionPath(path)
		if !ok {
			return nil
		}
		st := fileState{modTime: info.ModTime(), size: info.Size()}
		r.mu.Lock()
		prev, seen := r.watched[path]
		r.mu.Unlock()
		if seen && prev == st {
			return nil
		}
		changed = append(changed, found{path: path, name: name, version: version, state: st})
		return nil
	})
	if err != nil {
		return 0, err
	}
	// Load in (name, version) order so the highest version of each name
	// wins and version numbers stay aligned with filenames.
	sort.Slice(changed, func(i, j int) bool {
		if changed[i].name != changed[j].name {
			return changed[i].name < changed[j].name
		}
		return changed[i].version < changed[j].version
	})
	loaded := 0
	for _, f := range changed {
		data, err := os.ReadFile(f.path)
		if err != nil {
			continue // raced with a writer; next poll retries
		}
		r.mu.Lock()
		r.watched[f.path] = f.state
		if cur, ok := r.Get(f.name); ok && contentETag(data) == cur.ETag {
			r.mu.Unlock()
			continue // our own publish, or an identical copy
		}
		env, err := core.ParseModelOrEnvelope(data)
		if err != nil {
			r.mu.Unlock()
			// Corrupt or truncated model file: ignore it and keep
			// serving what we have. watched remembers this revision, so
			// the error logs once per file change, not once per poll.
			r.logf("registry: ignoring corrupt model file %s: %v", f.path, err)
			continue
		}
		if err := env.Model.Tree.Validate(); err != nil {
			r.mu.Unlock()
			// Parsed but structurally broken: treat it exactly like a
			// corrupt file — keep serving what we have.
			r.logf("registry: ignoring malformed model file %s: %v", f.path, err)
			continue
		}
		version := env.Version
		if version == 0 {
			version = f.version
		}
		// Reload in place without re-persisting: the bytes came from disk.
		if cur, ok := r.Get(f.name); ok && version <= cur.Version {
			version = cur.Version + 1
		}
		if version < 1 {
			version = 1
		}
		r.install(f.name, &Entry{
			Name:       f.name,
			Version:    version,
			ETag:       contentETag(data),
			SchemaHash: env.Model.SchemaHash(),
			Model:      env.Model,
			Lineage:    env.Lineage,
			Raw:        data,
		})
		loaded++
		r.mu.Unlock()
	}
	return loaded, nil
}

// Watch polls the registry directory every interval and hot-reloads new
// or changed model files until ctx is cancelled. It returns immediately
// for memory-only registries. onReload (optional) is called after every
// poll that loaded at least one model, with the count.
func (r *Registry) Watch(ctx context.Context, interval time.Duration, onReload func(n int)) {
	if r.dir == "" || interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if n, err := r.scan(); err == nil && n > 0 && onReload != nil {
				onReload(n)
			}
		}
	}
}

// contentETag hashes raw bytes into a quoted HTTP entity tag.
func contentETag(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%q", fmt.Sprintf("%016x", h.Sum64()))
}

// writeFileAtomic writes data via a temp file + rename so readers (and
// the watcher of another process) never observe a torn file. The temp
// file is synced before the rename and the directory after it, so a
// power loss right after a publish leaves either the old state or the
// complete new file, never an empty one.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()           //apollo:errok best-effort cleanup after a failed atomic write; the original error is returned
		os.Remove(tmp.Name()) //apollo:errok best-effort cleanup after a failed atomic write; the original error is returned
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()           //apollo:errok best-effort cleanup after a failed atomic write; the original error is returned
		os.Remove(tmp.Name()) //apollo:errok best-effort cleanup after a failed atomic write; the original error is returned
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name()) //apollo:errok best-effort cleanup after a failed atomic write; the original error is returned
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name()) //apollo:errok best-effort cleanup after a failed atomic write; the original error is returned
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close() //apollo:errok Close on the error path; the sync error is already being returned
		return err
	}
	return d.Close()
}
