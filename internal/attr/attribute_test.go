package attr

import (
	"fmt"
	"sync"
	"testing"
)

func TestRegistryCreateAndFind(t *testing.T) {
	r := NewRegistry()
	a, err := r.Create("function", String, Nested)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if !a.IsValid() || a.Name() != "function" || a.Type() != String || !a.IsNested() {
		t.Errorf("unexpected attribute: %v props=%v", a, a.Properties())
	}
	got, ok := r.Find("function")
	if !ok || got.ID() != a.ID() {
		t.Errorf("Find = %v,%v; want id %d", got, ok, a.ID())
	}
	if _, ok := r.Find("missing"); ok {
		t.Error("Find should miss for unregistered name")
	}
	byID, ok := r.Get(a.ID())
	if !ok || byID.Name() != "function" {
		t.Errorf("Get(%d) = %v,%v", a.ID(), byID, ok)
	}
	if _, ok := r.Get(999); ok {
		t.Error("Get out-of-range should fail")
	}
	if _, ok := r.Get(InvalidID); ok {
		t.Error("Get(InvalidID) should fail")
	}
}

func TestRegistryIdempotentCreate(t *testing.T) {
	r := NewRegistry()
	a1, _ := r.Create("x", Int, 0)
	a2, err := r.Create("x", Int, AsValue)
	if err != nil {
		t.Fatalf("re-Create: %v", err)
	}
	if a1.ID() != a2.ID() {
		t.Errorf("re-Create changed id: %d -> %d", a1.ID(), a2.ID())
	}
	// properties are OR-merged
	got, _ := r.Get(a1.ID())
	if got.Properties()&AsValue == 0 {
		t.Error("properties not merged")
	}
	if a, ok := r.Get(1); ok {
		t.Errorf("re-Create registered a second attribute %s", a.Name())
	}
}

func TestRegistryTypeConflict(t *testing.T) {
	r := NewRegistry()
	r.MustCreate("x", Int, 0)
	if _, err := r.Create("x", Float, 0); err == nil {
		t.Error("type conflict should error")
	}
}

func TestRegistryInvalidInputs(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Create("", Int, 0); err == nil {
		t.Error("empty name should error")
	}
	if _, err := r.Create("y", Inv, 0); err == nil {
		t.Error("Inv type should error")
	}
}

func TestMustCreatePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("MustCreate should panic on error")
		}
	}()
	r.MustCreate("", Int, 0)
}

func TestRegistryConcurrentCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("attr.%d", i%20)
				a, err := r.Create(name, Int, 0)
				if err != nil || !a.IsValid() {
					t.Errorf("concurrent Create(%q): %v", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// IDs must be dense 0..19, one per name
	seen := map[string]bool{}
	for id := ID(0); id < 20; id++ {
		a, ok := r.Get(id)
		if !ok || seen[a.Name()] {
			t.Errorf("id %d: missing or duplicate attribute %v", id, a)
		}
		seen[a.Name()] = true
	}
	if a, ok := r.Get(20); ok {
		t.Errorf("21st attribute %s, want 20", a.Name())
	}
}

func TestPropertiesStringRoundTrip(t *testing.T) {
	cases := []Properties{
		0, AsValue, Nested, AsValue | Nested | SkipEvents,
		Hidden | Global | Aggregatable,
		AsValue | Nested | SkipEvents | Hidden | Global | Aggregatable,
	}
	for _, p := range cases {
		got, err := ParseProperties(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProperties(%q) = %v,%v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParseProperties("bogus"); err == nil {
		t.Error("unknown property should error")
	}
}

func TestEntryString(t *testing.T) {
	r := NewRegistry()
	a := r.MustCreate("loop.iteration", Int, 0)
	e := Entry{Attr: a, Value: IntV(17)}
	if e.String() != "loop.iteration=17" {
		t.Errorf("Entry.String = %q", e.String())
	}
}

func TestAttributeString(t *testing.T) {
	r := NewRegistry()
	a := r.MustCreate("time.duration", Float, AsValue|Aggregatable)
	s := a.String()
	if s == "" || a.StoreAsValue() != true {
		t.Errorf("String=%q StoreAsValue=%v", s, a.StoreAsValue())
	}
}
